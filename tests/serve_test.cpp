// Serve-layer tests (runtime/serve.h + runtime/result_cache.h +
// io/serve_protocol.h) — the properties the placement service's whole value
// rests on:
//
//   * a cache hit is bit-identical to recomputing (a key IDENTIFIES its
//     result, so serving from the cache is indistinguishable from running);
//   * the cache key canonicalization is exact — default and explicitly
//     spelled options, in any OPT order, hash identically, the two
//     non-identity knobs (threads, time cap) are excluded, and every
//     result-affecting knob IS part of the key;
//   * cancellation mid-round leaves the worker's scratch bank reusable —
//     the next job on that worker is bit-identical to a fresh process;
//   * admission control rejects over-capacity submissions instead of
//     blocking, and the on-disk store survives engine restarts.
#include "runtime/serve.h"

#include <gtest/gtest.h>

#include <condition_variable>
#include <cstdio>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <mutex>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "engine/knobs.h"
#include "io/benchmark_format.h"
#include "io/corpus.h"
#include "io/serve_protocol.h"
#include "runtime/portfolio.h"
#include "runtime/result_cache.h"
#include "util/fault_injection.h"

namespace als {
namespace {

void expectBitIdentical(const EngineResult& a, const EngineResult& b,
                        std::string_view label) {
  EXPECT_EQ(a.cost, b.cost) << label;
  EXPECT_EQ(a.area, b.area) << label;
  EXPECT_EQ(a.hpwl, b.hpwl) << label;
  EXPECT_EQ(a.movesTried, b.movesTried) << label;
  EXPECT_EQ(a.sweeps, b.sweeps) << label;
  EXPECT_EQ(a.restartsRun, b.restartsRun) << label;
  EXPECT_EQ(a.bestRestart, b.bestRestart) << label;
  EXPECT_EQ(a.bestSeed, b.bestSeed) << label;
  ASSERT_EQ(a.placement.size(), b.placement.size()) << label;
  for (std::size_t m = 0; m < a.placement.size(); ++m) {
    EXPECT_EQ(a.placement[m], b.placement[m]) << label << " module " << m;
  }
}

/// Blocking submit helper: runs one job to completion and returns a deep
/// copy of its outcome (JobOutcome::result is only valid during onDone).
struct CompletedJob {
  bool done = false;
  bool cacheHit = false;
  bool cancelled = false;
  bool deadlineExpired = false;
  std::string error;
  EngineResult result;
  CacheKey key;
};

CompletedJob runJob(ServeEngine& engine, std::string_view circuitText,
                    EngineBackend backend, const EngineOptions& options,
                    double deadlineSeconds = 0.0,
                    std::size_t deadlineSweeps = 0,
                    ServeEngine::ProgressFn onProgress = nullptr) {
  CompletedJob out;
  std::mutex m;
  std::condition_variable cv;
  ServeEngine::Job job;
  job.circuitText = std::string(circuitText);
  job.backend = backend;
  job.options = options;
  job.deadlineSeconds = deadlineSeconds;
  job.deadlineSweeps = deadlineSweeps;
  job.onProgress = std::move(onProgress);
  job.onDone = [&](const ServeEngine::JobOutcome& o) {
    std::lock_guard<std::mutex> lock(m);
    out.cacheHit = o.cacheHit;
    out.cancelled = o.cancelled;
    out.deadlineExpired = o.deadlineExpired;
    out.error = o.error;
    out.key = o.key;
    if (o.result != nullptr) out.result = *o.result;
    out.done = true;
    cv.notify_all();
  };
  ServeEngine::Submission sub = engine.submit(std::move(job));
  EXPECT_TRUE(sub.accepted);
  if (!sub.accepted) return out;
  std::unique_lock<std::mutex> lock(m);
  cv.wait(lock, [&] { return out.done; });
  return out;
}

/// The serve layer's recompute oracle: what a fresh process would produce
/// for the same (circuit, backend, options) — PortfolioRunner::run with the
/// serve layer's forced knobs (no time cap, one thread; thread count is
/// result-invariant anyway).
EngineResult oracle(std::string_view circuitText, EngineBackend backend,
                    EngineOptions options) {
  auto parsed = parseBenchmark(circuitText);
  EXPECT_TRUE(parsed.ok()) << parsed.error;
  options.timeLimitSec = 0.0;
  options.numThreads = 1;
  return PortfolioRunner().run(parsed.circuit, backend, options);
}

std::string canonical(EngineBackend backend, const EngineOptions& options) {
  std::string out;
  canonicalOptionsKey(backend, options, out);
  return out;
}

CacheKey keyOf(std::string_view text, EngineBackend backend,
               const EngineOptions& options) {
  std::string scratch;
  return makeCacheKey(text, backend, options, scratch);
}

// --------------------------------------------------------- cache key -------

/// The wire spelling of `options`' member for `knob` (%.17g doubles, as
/// the canonical key prints them).
std::string spell(const EngineOptions& options, const Knob& knob) {
  std::string out;
  forEachKnob([&](const Knob& k, auto member) {
    if (k.wire != knob.wire) return;
    const auto& v = options.*member;
    if constexpr (std::is_floating_point_v<std::remove_cvref_t<decltype(v)>>) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.17g", v);
      out = buf;
    } else {
      out = std::to_string(static_cast<std::uint64_t>(v));
    }
  });
  return out;
}

TEST(CacheKeyTest, DefaultAndExplicitSpellingsCanonicalizeIdentically) {
  const std::string_view text = corpusText(CorpusCircuit::Apte);
  const EngineOptions defaulted;
  EngineOptions spelled;
  // Every knob of the table, set to its default value via the wire
  // dialect: the canonical string (and so the key) must not move.
  for (const Knob& knob : kKnobs) {
    EXPECT_EQ(applyJobOption(spelled, knob.wire, spell(defaulted, knob)), "")
        << knob.wire;
  }
  EXPECT_EQ(canonical(EngineBackend::SeqPair, defaulted),
            canonical(EngineBackend::SeqPair, spelled));
  EXPECT_EQ(keyOf(text, EngineBackend::SeqPair, defaulted),
            keyOf(text, EngineBackend::SeqPair, spelled));
}

// The canonical string is the on-disk identity of every stored result: a
// byte that moves orphans every existing store.  These literals were
// captured before the options layer was table-driven and must never change
// under a `v=1` key.
TEST(CacheKeyTest, CanonicalKeyStringsArePinned) {
  const char* defaults[] = {
      "v=1 backend=flat-bstar wl=0.25 sym=2 prox=2 outline=4 maxw=0 maxh=0 "
      "aspect=0 thermal=0 shape=0 sweeps=256 cool=0.95999999999999996 mpt=0 "
      "restarts=1 tempering=0 exch=4 ladder=0.90000000000000002 cross=1",
      "v=1 backend=seqpair wl=0.25 sym=2 prox=2 outline=4 maxw=0 maxh=0 "
      "aspect=0 thermal=0 shape=0 sweeps=256 cool=0.95999999999999996 mpt=0 "
      "restarts=1 tempering=0 exch=4 ladder=0.90000000000000002 cross=1",
      "v=1 backend=slicing wl=0.25 sym=2 prox=2 outline=4 maxw=0 maxh=0 "
      "aspect=0 thermal=0 shape=0 sweeps=256 cool=0.95999999999999996 mpt=0 "
      "restarts=1 tempering=0 exch=4 ladder=0.90000000000000002 cross=1",
      "v=1 backend=hbstar wl=0.25 sym=2 prox=2 outline=4 maxw=0 maxh=0 "
      "aspect=0 thermal=0 shape=0 sweeps=256 cool=0.95999999999999996 mpt=0 "
      "restarts=1 tempering=0 exch=4 ladder=0.90000000000000002 cross=1",
  };
  ASSERT_EQ(allBackends().size(), std::size(defaults));
  for (std::size_t i = 0; i < std::size(defaults); ++i) {
    EXPECT_EQ(canonical(allBackends()[i], EngineOptions{}), defaults[i]);
  }

  // One OPT soup that sets every knob the wire accepts.
  EngineOptions soup;
  for (auto [k, v] : std::initializer_list<std::pair<const char*, const char*>>{
           {"wl", "0.5"}, {"sym", "3"}, {"prox", "1.5"}, {"outline", "8"},
           {"maxw", "1000"}, {"maxh", "2000"}, {"aspect", "1.5"},
           {"thermal", "1"}, {"shape", "0.25"}, {"sweeps", "512"},
           {"cool", "0.9"}, {"mpt", "7"}, {"restarts", "4"},
           {"tempering", "1"}, {"exch", "8"}, {"ladder", "0.8"},
           {"cross", "0"}, {"seed", "9"}, {"threads", "3"}}) {
    ASSERT_EQ(applyJobOption(soup, k, v), "") << k;
  }
  EXPECT_EQ(canonical(EngineBackend::SeqPair, soup),
            "v=1 backend=seqpair wl=0.5 sym=3 prox=1.5 outline=8 maxw=1000 "
            "maxh=2000 aspect=1.5 thermal=1 shape=0.25 sweeps=512 "
            "cool=0.90000000000000002 mpt=7 restarts=4 tempering=1 exch=8 "
            "ladder=0.80000000000000004 cross=0");
}

TEST(CacheKeyTest, OptApplicationOrderDoesNotMatter) {
  const std::string_view text = corpusText(CorpusCircuit::Apte);
  EngineOptions forward;
  ASSERT_EQ(applyJobOption(forward, "wl", "0.5"), "");
  ASSERT_EQ(applyJobOption(forward, "sweeps", "128"), "");
  ASSERT_EQ(applyJobOption(forward, "tempering", "1"), "");
  EngineOptions backward;
  ASSERT_EQ(applyJobOption(backward, "tempering", "1"), "");
  ASSERT_EQ(applyJobOption(backward, "sweeps", "128"), "");
  ASSERT_EQ(applyJobOption(backward, "wl", "0.5"), "");
  EXPECT_EQ(keyOf(text, EngineBackend::FlatBStar, forward),
            keyOf(text, EngineBackend::FlatBStar, backward));
}

TEST(CacheKeyTest, NonIdentityKnobsAreExcluded) {
  const std::string_view text = corpusText(CorpusCircuit::Apte);
  EngineOptions base;
  const CacheKey baseKey = keyOf(text, EngineBackend::SeqPair, base);
  EngineOptions threads = base;
  threads.numThreads = 8;
  EXPECT_EQ(keyOf(text, EngineBackend::SeqPair, threads), baseKey)
      << "numThreads must not be part of the key (results are thread-"
         "invariant)";
  EngineOptions timed = base;
  timed.timeLimitSec = 3.5;
  EXPECT_EQ(keyOf(text, EngineBackend::SeqPair, timed), baseKey)
      << "timeLimitSec must not be part of the key (the serve layer zeroes "
         "it)";
}

TEST(CacheKeyTest, SeedOnlyMovesTheSeedWord) {
  const std::string_view text = corpusText(CorpusCircuit::Apte);
  EngineOptions base;
  base.seed = 1;
  EngineOptions reseeded = base;
  reseeded.seed = 2;
  const CacheKey a = keyOf(text, EngineBackend::SeqPair, base);
  const CacheKey b = keyOf(text, EngineBackend::SeqPair, reseeded);
  EXPECT_EQ(a.circuit, b.circuit);
  EXPECT_EQ(a.options, b.options);
  EXPECT_NE(a.seed, b.seed);
}

TEST(CacheKeyTest, EveryResultAffectingKnobChangesTheKey) {
  const std::string_view text = corpusText(CorpusCircuit::Apte);
  const EngineOptions base;
  const CacheKey baseKey = keyOf(text, EngineBackend::SeqPair, base);
  // One in-domain value away from the default per knob: the canonical
  // options word moves exactly for KnobKey::Options knobs, the seed word
  // exactly for the seed, and nothing for result-invariant knobs.
  for (const Knob& knob : kKnobs) {
    const std::string current = spell(base, knob);
    std::string value;
    switch (knob.domain.kind) {
      case KnobDomain::Real: {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.17g",
                      (knob.domain.lo + knob.domain.hi) / 2);
        value = buf;
        break;
      }
      case KnobDomain::Count: value = current == "1" ? "2" : "1"; break;
      case KnobDomain::Flag: value = current == "1" ? "0" : "1"; break;
    }
    ASSERT_NE(value, current) << knob.wire;
    EngineOptions mutated = base;
    ASSERT_EQ(applyJobOption(mutated, knob.wire, value), "") << knob.wire;
    const CacheKey key = keyOf(text, EngineBackend::SeqPair, mutated);
    EXPECT_EQ(key.options != baseKey.options, knob.key == KnobKey::Options)
        << knob.wire;
    EXPECT_EQ(key.seed != baseKey.seed, knob.key == KnobKey::Seed)
        << knob.wire;
  }
  // And the backend itself is part of the canonical string.
  EXPECT_NE(keyOf(text, EngineBackend::FlatBStar, base).options,
            baseKey.options);
}

TEST(CacheKeyTest, HexRoundTripsAndRejectsGarbage) {
  CacheKey key{0x0123456789abcdefull, 0xfedcba9876543210ull, 42};
  CacheKey parsed;
  ASSERT_TRUE(parsed.parseHex(key.hex()));
  EXPECT_EQ(parsed, key);
  EXPECT_EQ(key.hex().size(), 48u);
  EXPECT_FALSE(parsed.parseHex("not-a-key"));
  EXPECT_FALSE(parsed.parseHex(key.hex().substr(1)));
}

TEST(CacheKeyTest, UnknownJobOptionIsAnError) {
  EngineOptions options;
  EXPECT_NE(applyJobOption(options, "frobnicate", "1"), "")
      << "a silently dropped knob would poison the cache key contract";
  EXPECT_NE(applyJobOption(options, "sweeps", "banana"), "");
}

// An uncapped budget plans one slice per restart, and a serve job keeps
// every slice's session alive at once (the rounds route), so the count is
// bounded by what a worker can hold.  Parse only: no job at the bound is
// ever run.
TEST(CacheKeyTest, RestartCountIsBoundedAtParse) {
  EngineOptions options;
  EXPECT_NE(applyJobOption(options, "restarts", "18446744073709551615"), "");
  EXPECT_NE(applyJobOption(options, "restarts", "1000000"), "");
  EXPECT_NE(applyJobOption(options, "restarts", "1025"), "");
  EXPECT_EQ(options.numRestarts, EngineOptions{}.numRestarts)
      << "a rejected OPT must leave the options untouched";
  EXPECT_EQ(applyJobOption(options, "restarts", "1024"), "");
  EXPECT_EQ(options.numRestarts, kMaxRestarts);
  EXPECT_EQ(kMaxRestarts, 1024u);
}

// An outline extent is a Coord: a value past INT64_MAX used to wrap to a
// negative width (read as "unconstrained") while the key kept the huge one.
TEST(CacheKeyTest, OutlineExtentIsBoundedAtInt64Max) {
  for (const char* key : {"maxw", "maxh"}) {
    EngineOptions options;
    EXPECT_NE(applyJobOption(options, key, "9223372036854775808"), "") << key;
    EXPECT_NE(applyJobOption(options, key, "18446744073709551615"), "")
        << key;
    EXPECT_EQ(options.maxWidth, 0);
    EXPECT_EQ(options.maxHeight, 0);
    EXPECT_EQ(applyJobOption(options, key, "9223372036854775807"), "") << key;
  }
}

// ------------------------------------------------------- result text -------

TEST(ResultTextTest, RoundTripsBitIdentically) {
  const std::string_view text = corpusText(CorpusCircuit::Apte);
  EngineOptions options;
  options.maxSweeps = 48;
  options.numRestarts = 2;
  options.seed = 7;
  const EngineResult computed = oracle(text, EngineBackend::SeqPair, options);

  std::string wire;
  writeResultText(EngineBackend::SeqPair, computed, wire);
  EngineBackend backend = EngineBackend::FlatBStar;
  EngineResult parsed;
  ASSERT_EQ(parseResultText(wire, backend, parsed), "");
  EXPECT_EQ(backend, EngineBackend::SeqPair);
  expectBitIdentical(parsed, computed, "ALSRESULT round trip");
  // seconds is deliberately not identity: it round-trips as 0.
  EXPECT_EQ(parsed.seconds, 0.0);

  EngineResult mangled;
  EXPECT_NE(parseResultText("ALSRESULT 1\nBackend seqpair\n", backend,
                            mangled),
            "");
}

// -------------------------------------------------------- wire codec -------
// The ALSSERVE 1 codec (io/serve_protocol.h), fed from strings: the daemon
// and its clients run exactly these functions over their sockets.

/// The daemon's dispatch of one JOB block: the JOB line, then `readJob`.
JobStatus readBlock(WireReader& reader, std::string& tag, JobRequest& job,
                    std::string& error) {
  std::string line;
  EXPECT_TRUE(reader.readLine(line));
  std::string_view rest = line;
  EXPECT_EQ(nextToken(rest), "JOB");
  return readJob(reader, rest, tag, job, error);
}

JobStatus readBlock(std::string wire, std::string& tag, JobRequest& job,
                    std::string& error) {
  WireReader reader(std::move(wire));
  return readBlock(reader, tag, job, error);
}

const std::string_view kTinyCircuit =
    "ALSBENCH 1\nCircuit t\nNumBlocks 1\nBlock a 10 10\n";

TEST(ServeCodecTest, ReaderSplitsLinesStripsOneCrAndCountsBytes) {
  WireReader reader(std::string("A b\r\nc\n\r\r\n12345tail\nlast"));
  std::string line;
  ASSERT_TRUE(reader.readLine(line));
  EXPECT_EQ(line, "A b");
  ASSERT_TRUE(reader.readLine(line));
  EXPECT_EQ(line, "c");
  ASSERT_TRUE(reader.readLine(line));
  EXPECT_EQ(line, "\r") << "one CR rule: only the last \\r goes";
  ASSERT_TRUE(reader.readExact(5, line));
  EXPECT_EQ(line, "12345");
  ASSERT_TRUE(reader.readLine(line));
  EXPECT_EQ(line, "tail");
  EXPECT_FALSE(reader.readLine(line)) << "an unterminated line is EOF";
  ASSERT_TRUE(reader.readExact(4, line));
  EXPECT_EQ(line, "last");
  EXPECT_FALSE(reader.readExact(1, line));

  std::string_view rest = " \tJOB  t1\tseqpair ";
  EXPECT_EQ(nextToken(rest), "JOB");
  EXPECT_EQ(nextToken(rest), "t1");
  EXPECT_EQ(nextToken(rest), "seqpair");
  EXPECT_EQ(nextToken(rest), "");

  std::uint64_t n = 0;
  EXPECT_TRUE(parseCount("18446744073709551615", n));
  EXPECT_EQ(n, ~std::uint64_t{0});
  for (const char* bad : {"", "-1", "+1", " 1", "1 ", "1.5", "0x10",
                          "18446744073709551616"}) {
    EXPECT_FALSE(parseCount(bad, n)) << '"' << bad << '"';
  }
}

TEST(ServeCodecTest, JobBlockRoundTripsThroughWriterAndReader) {
  const WireOpt opts[] = {{"sweeps", "12"},       {"restarts", "2"},
                          {"seed", "5"},          {"wl", "0.5"},
                          {"deadline-ms", "250"}, {"deadline-sweeps", "64"}};
  std::string wire;
  appendJobBlock(wire, "t1", "seqpair", opts, kTinyCircuit);
  EXPECT_EQ(wire.substr(0, wire.find("CIRCUIT")),
            "JOB t1 seqpair\nOPT sweeps 12\nOPT restarts 2\nOPT seed 5\n"
            "OPT wl 0.5\nOPT deadline-ms 250\nOPT deadline-sweeps 64\n");

  std::string tag, error;
  JobRequest job;
  ASSERT_EQ(readBlock(wire, tag, job, error), JobStatus::Ok) << error;
  EXPECT_EQ(tag, "t1");
  EXPECT_EQ(job.backend, EngineBackend::SeqPair);
  EXPECT_EQ(job.circuitText, kTinyCircuit);
  EXPECT_EQ(job.deadlineSeconds, 0.25);
  EXPECT_EQ(job.deadlineSweeps, 64u);
  EngineOptions expected;
  expected.maxSweeps = 12;
  expected.numRestarts = 2;
  expected.seed = 5;
  expected.wirelengthWeight = 0.5;
  EXPECT_EQ(canonical(job.backend, job.options),
            canonical(EngineBackend::SeqPair, expected));
  EXPECT_EQ(job.options.seed, 5u);

  // CRLF control lines frame exactly like LF ones; the payload is raw.
  std::string crlf = "JOB t1 seqpair\r\nOPT sweeps 12\r\nOPT restarts 2\r\n"
                     "OPT seed 5\r\nOPT wl 0.5\r\nOPT deadline-ms 250\r\n"
                     "OPT deadline-sweeps 64\r\nCIRCUIT " +
                     std::to_string(kTinyCircuit.size()) + "\r\n" +
                     std::string(kTinyCircuit) + "END\r\n";
  JobRequest viaCrlf;
  ASSERT_EQ(readBlock(crlf, tag, viaCrlf, error), JobStatus::Ok) << error;
  EXPECT_EQ(tag, "t1");
  EXPECT_EQ(viaCrlf.circuitText, job.circuitText);
  EXPECT_EQ(canonical(viaCrlf.backend, viaCrlf.options),
            canonical(job.backend, job.options));
  EXPECT_EQ(viaCrlf.deadlineSeconds, job.deadlineSeconds);
  EXPECT_EQ(viaCrlf.deadlineSweeps, job.deadlineSweeps);
}

TEST(ServeCodecTest, FramingErrorsBreakTheConnection) {
  const std::string circuit = "CIRCUIT " + std::to_string(kTinyCircuit.size()) +
                              "\n" + std::string(kTinyCircuit);
  const std::string blocks[] = {
      "JOB t seqpair\nFROB\nEND\n",                  // unknown line
      "JOB t seqpair\n\nEND\n",                      // empty line
      "JOB t seqpair\nCIRCUIT ten\nEND\n",           // bad count
      "JOB t seqpair\nCIRCUIT -1\nEND\n",            // signed count
      "JOB t seqpair\nCIRCUIT 100\nshort\nEND\n",    // EOF mid-payload
      "JOB t seqpair\nOPT sweeps 4\n",               // EOF before END
      "JOB t bogus\nOPT sweeps -1\nFROB\nEND\n",     // after a semantic error
      "JOB t seqpair\n" + circuit + "OPT seed 2\n",  // EOF after the payload
  };
  for (const std::string& block : blocks) {
    std::string tag, error;
    JobRequest job;
    EXPECT_EQ(readBlock(block, tag, job, error), JobStatus::Broken) << block;
  }
}

TEST(ServeCodecTest, CircuitCountAboveTheCapIsRefusedBeforeAnyRead) {
  std::string tag, error;
  JobRequest job;
  WireReader reader("JOB t seqpair\nCIRCUIT " +
                    std::to_string(kMaxCircuitBytes + 1) + "\nnext line\n");
  ASSERT_EQ(readBlock(reader, tag, job, error), JobStatus::Broken);
  // No payload byte was consumed: the over-cap count alone broke framing.
  std::string line;
  ASSERT_TRUE(reader.readLine(line));
  EXPECT_EQ(line, "next line");
}

TEST(ServeCodecTest, SemanticErrorsKeepTheConnectionInPrecedenceOrder) {
  const std::string circuit = "CIRCUIT " + std::to_string(kTinyCircuit.size()) +
                              "\n" + std::string(kTinyCircuit);
  struct Case {
    std::string block;
    const char* tag;
    const char* error;
  };
  const Case cases[] = {
      {"JOB t1\n", "?", "JOB needs <tag> <backend>"},
      {"JOB\n", "?", "JOB needs <tag> <backend>"},
      {"JOB t2 bogus\nOPT sweeps -1\nEND\n", "t2", "unknown backend 'bogus'"},
      {"JOB t3 seqpair\nOPT sweeps -1\nOPT deadline-ms x\nEND\n", "t3",
       "bad OPT sweeps: integer in [0, 18446744073709551615]"},
      {"JOB t4 seqpair\nOPT deadline-ms x\nOPT bogus 1\n" + circuit + "END\n",
       "t4", "bad OPT deadline-ms: nonnegative integer"},
      {"JOB t5 seqpair\nOPT bogus 1\nEND\n", "t5", "unknown OPT key bogus"},
      {"JOB t6 seqpair\nOPT sweeps 4\nEND\n", "t6", "JOB block has no CIRCUIT"},
  };
  for (const Case& c : cases) {
    std::string tag, error;
    JobRequest job;
    EXPECT_EQ(readBlock(c.block, tag, job, error), JobStatus::Error) << c.block;
    EXPECT_EQ(tag, c.tag) << c.block;
    EXPECT_EQ(error, c.error) << c.block;
  }
  for (const char* key : {"deadline-ms", "deadline-sweeps"}) {
    for (const char* value : {"", "-5", "1.5", "+3", "1e3", "abc",
                              "18446744073709551616"}) {
      const std::string block = "JOB t seqpair\nOPT " + std::string(key) +
                                " " + value + "\n" + circuit + "END\n";
      std::string tag, error;
      JobRequest job;
      EXPECT_EQ(readBlock(block, tag, job, error), JobStatus::Error) << block;
      EXPECT_EQ(error, "bad OPT " + std::string(key) + ": nonnegative integer");
    }
  }
}

TEST(ServeCodecTest, ServerLinesHaveTheirWireBytesAndParseBack) {
  const CacheKey key{1, 2, 3};
  EXPECT_EQ(queuedLine("t", key), "QUEUED t " + key.hex() + "\n");
  EXPECT_EQ(rejectedLine("t"), "REJECTED t queue-full\n");
  EXPECT_EQ(errorLine("?", "unknown command"), "ERROR ? unknown command\n");
  EXPECT_EQ(progressLine("t", 3, 96, 0.1),
            "PROGRESS t 3 96 0.10000000000000001\n");
  ServeStats stats{1, 2, 3, 4, 5, 6, 7, 8, 9, true};
  EXPECT_EQ(statsLine(stats), "STATS 1 2 3 4 5 6 7 8 9 1\n");

  // Views in the reply point into `line`, which the caller keeps alive.
  auto parsed = [](const std::string& line) {
    ServerReply reply;
    EXPECT_TRUE(parseReply(std::string_view(line).substr(0, line.size() - 1),
                           reply))
        << line;
    return reply;
  };
  const std::string queued = queuedLine("t", key);
  ServerReply r = parsed(queued);
  EXPECT_EQ(r.kind, ServerReply::Queued);
  EXPECT_EQ(r.tag, "t");
  EXPECT_EQ(r.text, key.hex());
  const std::string rejected = rejectedLine("t");
  r = parsed(rejected);
  EXPECT_EQ(r.kind, ServerReply::Rejected);
  EXPECT_EQ(r.text, "queue-full");
  const std::string error = errorLine("t", "bad OPT x: y z");
  r = parsed(error);
  EXPECT_EQ(r.kind, ServerReply::Error);
  EXPECT_EQ(r.text, "bad OPT x: y z");
  const std::string progress = progressLine("t", 3, 96, 0.1);
  r = parsed(progress);
  EXPECT_EQ(r.kind, ServerReply::Progress);
  EXPECT_EQ(r.round, 3u);
  EXPECT_EQ(r.sweepsDone, 96u);
  EXPECT_EQ(r.bestCost, 0.1);
  r = parsed(statsLine(stats));
  EXPECT_EQ(r.kind, ServerReply::Stats);
  EXPECT_EQ(r.stats, stats);
  EXPECT_EQ(parsed("FLUSHED\n").kind, ServerReply::Flushed);
  EXPECT_EQ(parsed("BYE\n").kind, ServerReply::Bye);
  for (const char* bad :
       {"", "QUEUED", "QUEUED t", "RESULT t miss", "RESULT t miss x",
        "PROGRESS t 1 2", "STATS 1 2", "STATS 1 2 3 4 5 6 7 8 9 1 11",
        "BYE now", "HELLO t"}) {
    ServerReply reply;
    EXPECT_FALSE(parseReply(bad, reply)) << '"' << bad << '"';
  }
}

TEST(ServeCodecTest, ResultBlockRoundTripsThroughTheReader) {
  const std::string_view text = corpusText(CorpusCircuit::Apte);
  EngineOptions options;
  options.maxSweeps = 16;
  const EngineResult computed = oracle(text, EngineBackend::SeqPair, options);
  std::string wire;
  appendResultBlock(wire, "t7", "miss", EngineBackend::SeqPair, computed);
  std::string payload;
  writeResultText(EngineBackend::SeqPair, computed, payload);
  EXPECT_EQ(wire, "RESULT t7 miss " + std::to_string(payload.size()) + "\n" +
                      payload + "DONE t7\n");

  WireReader reader(wire + progressLine("t8", 1, 2, 3.0));
  std::string line;
  ASSERT_TRUE(reader.readLine(line));
  ServerReply reply;
  ASSERT_TRUE(parseReply(line, reply));
  EXPECT_EQ(reply.kind, ServerReply::Result);
  EXPECT_EQ(reply.tag, "t7");
  EXPECT_EQ(reply.text, "miss");
  std::string body;
  ASSERT_TRUE(readResultBody(reader, reply, body));
  EXPECT_EQ(body, payload);
  ASSERT_TRUE(reader.readLine(line));
  EXPECT_EQ(line, "PROGRESS t8 1 2 3");

  // A DONE for another tag, or none, is a broken RESULT.
  WireReader wrongDone(payload + "DONE t9\n");
  EXPECT_FALSE(readResultBody(wrongDone, reply, body));
  WireReader truncated(payload.substr(0, payload.size() / 2));
  EXPECT_FALSE(readResultBody(truncated, reply, body));
}

// ------------------------------------------------------- serve engine ------

TEST(ServeEngineTest, CacheHitIsBitIdenticalToRecompute) {
  ServeOptions serveOpts;
  serveOpts.workers = 1;
  ServeEngine engine(serveOpts);

  const std::string_view text = corpusText(CorpusCircuit::Apte);
  EngineOptions options;
  options.maxSweeps = 64;
  options.numRestarts = 2;
  options.seed = 3;

  CompletedJob cold = runJob(engine, text, EngineBackend::SeqPair, options);
  ASSERT_EQ(cold.error, "");
  EXPECT_FALSE(cold.cacheHit);
  // The serve compute path (per-slice sessions advanced in rounds, shared
  // reduction) must agree bit-for-bit with the plain portfolio runner.
  expectBitIdentical(cold.result, oracle(text, EngineBackend::SeqPair, options),
                     "serve compute vs PortfolioRunner");

  CompletedJob warm = runJob(engine, text, EngineBackend::SeqPair, options);
  ASSERT_EQ(warm.error, "");
  EXPECT_TRUE(warm.cacheHit);
  EXPECT_EQ(warm.key, cold.key);
  expectBitIdentical(warm.result, cold.result, "cache hit vs recompute");

  ServeStats stats = engine.stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.cacheHits, 1u);
  EXPECT_EQ(stats.cacheMisses, 1u);
}

TEST(ServeEngineTest, TemperingJobsAreDeterministicAndCacheable) {
  ServeOptions serveOpts;
  serveOpts.workers = 1;
  ServeEngine engine(serveOpts);

  const std::string_view text = corpusText(CorpusCircuit::Apte);
  EngineOptions options;
  options.maxSweeps = 48;
  options.numRestarts = 3;
  options.tempering = true;
  options.exchangeInterval = 2;
  options.seed = 11;

  CompletedJob first = runJob(engine, text, EngineBackend::SeqPair, options);
  ASSERT_EQ(first.error, "");
  EXPECT_FALSE(first.cacheHit);
  engine.cache().clear();
  CompletedJob second = runJob(engine, text, EngineBackend::SeqPair, options);
  ASSERT_EQ(second.error, "");
  EXPECT_FALSE(second.cacheHit) << "clear() must force recomputation";
  expectBitIdentical(second.result, first.result,
                     "tempering recompute on warm scratch");
  CompletedJob hit = runJob(engine, text, EngineBackend::SeqPair, options);
  EXPECT_TRUE(hit.cacheHit);
  expectBitIdentical(hit.result, first.result, "tempering cache hit");
}

// Serve rounds are the progress interval unless a ladder's exchange interval
// fixes them, so a tempering job may pause where a plain TemperingRunner run
// never does (exchangeInterval = 0) or report between exchange rounds.  A
// paused session resumes bit-identically, so both equal the oracle.
TEST(ServeEngineTest, TemperingJobsMatchThePortfolioOracle) {
  ServeOptions serveOpts;
  serveOpts.workers = 1;
  serveOpts.progressInterval = 3;
  ServeEngine engine(serveOpts);

  const std::string_view text = corpusText(CorpusCircuit::Apte);
  EngineOptions options;
  options.maxSweeps = 48;
  options.numRestarts = 3;
  options.tempering = true;
  options.seed = 13;
  for (std::size_t interval : {0u, 2u}) {
    options.exchangeInterval = interval;
    std::size_t progressEvents = 0;
    CompletedJob job = runJob(
        engine, text, EngineBackend::SeqPair, options, 0.0, 0,
        [&](std::size_t, std::size_t, double) { ++progressEvents; });
    ASSERT_EQ(job.error, "");
    EXPECT_FALSE(job.cacheHit);
    EXPECT_GT(progressEvents, 0u) << "exchange interval " << interval;
    expectBitIdentical(job.result,
                       oracle(text, EngineBackend::SeqPair, options),
                       "tempering job, exchange interval " +
                           std::to_string(interval));
  }
}

// A serve job runs one backend, and only a race of two can cross-seed, so
// `OPT cross 0` names the same result as the default: one key, one compute.
TEST(ServeEngineTest, CrossSeedDoesNotSplitTheCache) {
  ServeOptions serveOpts;
  serveOpts.workers = 1;
  ServeEngine engine(serveOpts);
  const std::string_view text = corpusText(CorpusCircuit::Apte);
  EngineOptions options;
  options.maxSweeps = 32;
  options.numRestarts = 2;
  options.tempering = true;
  EngineOptions noCross = options;
  ASSERT_EQ(applyJobOption(noCross, "cross", "0"), "");

  CompletedJob first = runJob(engine, text, EngineBackend::FlatBStar, noCross);
  ASSERT_EQ(first.error, "");
  EXPECT_FALSE(first.cacheHit);
  CompletedJob second = runJob(engine, text, EngineBackend::FlatBStar, options);
  ASSERT_EQ(second.error, "");
  EXPECT_EQ(second.key, first.key);
  EXPECT_TRUE(second.cacheHit);
  expectBitIdentical(second.result, first.result, "cross 0 vs default");
}

// A knob the backend refuses is an error at submit: nothing is queued or
// counted, and the message is the one every single-backend route gives.
TEST(ServeEngineTest, RefusedKnobIsAnErrorBeforeAnythingIsQueued) {
  ServeEngine engine(ServeOptions{});
  ServeEngine::Job job;
  job.circuitText = std::string(corpusText(CorpusCircuit::Apte));
  job.backend = EngineBackend::SeqPair;
  ASSERT_EQ(applyJobOption(job.options, "shape", "0.2"), "");
  const ServeEngine::Submission sub = engine.submit(std::move(job));
  EXPECT_FALSE(sub.accepted);
  EXPECT_EQ(sub.error,
            "OPT shape is refused by seqpair: it has neither the term nor its "
            "guarantee");
  EXPECT_EQ(engine.stats(), ServeStats{});
}

TEST(ServeEngineTest, ParseFailureCompletesWithErrorAndIsNotCached) {
  ServeOptions serveOpts;
  serveOpts.workers = 1;
  ServeEngine engine(serveOpts);
  CompletedJob bad =
      runJob(engine, "this is not ALSBENCH\n", EngineBackend::SeqPair, {});
  EXPECT_NE(bad.error, "");
  EXPECT_EQ(engine.cache().size(), 0u);
}

TEST(ServeEngineTest, CancelMidRoundLeavesWorkerBitIdenticallyReusable) {
  ServeOptions serveOpts;
  serveOpts.workers = 1;
  serveOpts.progressInterval = 4;  // small rounds: cancellation lands mid-run
  ServeEngine engine(serveOpts);

  // A job long enough that the first progress round fires well before the
  // budget is spent (ami33 at this budget computes for seconds, not ms).
  EngineOptions longOpts;
  longOpts.maxSweeps = 200000;
  longOpts.numRestarts = 2;
  longOpts.seed = 5;

  std::mutex m;
  std::condition_variable cv;
  bool sawProgress = false;
  bool done = false;
  bool cancelled = false;
  std::string error;

  ServeEngine::Job job;
  job.circuitText = std::string(corpusText(CorpusCircuit::Ami33));
  job.backend = EngineBackend::SeqPair;
  job.options = longOpts;
  job.onProgress = [&](std::size_t, std::size_t, double) {
    std::lock_guard<std::mutex> lock(m);
    sawProgress = true;
    cv.notify_all();
  };
  job.onDone = [&](const ServeEngine::JobOutcome& o) {
    std::lock_guard<std::mutex> lock(m);
    cancelled = o.cancelled;
    error = o.error;
    done = true;
    cv.notify_all();
  };
  ServeEngine::Submission sub = engine.submit(std::move(job));
  ASSERT_TRUE(sub.accepted);
  {
    // Cancel from the controlling thread once the run is provably mid-round,
    // exactly as the daemon's CANCEL line arrives from a connection thread.
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [&] { return sawProgress; });
  }
  EXPECT_TRUE(engine.cancel(sub.id));
  {
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [&] { return done; });
  }
  EXPECT_EQ(error, "");
  EXPECT_TRUE(cancelled);
  EXPECT_EQ(engine.cache().size(), 0u)
      << "a cancelled (best-so-far, non-deterministic) result must never be "
         "cached";
  EXPECT_FALSE(engine.cancel(sub.id)) << "completed ids are unknown";

  // The same worker — same ThreadPool, same warm TemperingScratch bank —
  // must now run a fresh job bit-identically to an unperturbed process.
  const std::string_view text = corpusText(CorpusCircuit::Apte);
  EngineOptions freshOpts;
  freshOpts.maxSweeps = 64;
  freshOpts.numRestarts = 2;
  freshOpts.seed = 9;
  CompletedJob fresh = runJob(engine, text, EngineBackend::SeqPair, freshOpts);
  ASSERT_EQ(fresh.error, "");
  EXPECT_FALSE(fresh.cacheHit);
  expectBitIdentical(fresh.result,
                     oracle(text, EngineBackend::SeqPair, freshOpts),
                     "post-cancel worker vs fresh process");
  EXPECT_EQ(engine.stats().cancelled, 1u);
}

TEST(ServeEngineTest, AdmissionControlRejectsWhenSlotsAreFull) {
  ServeOptions serveOpts;
  serveOpts.workers = 1;
  serveOpts.queueCapacity = 1;
  serveOpts.progressInterval = 4;
  ServeEngine engine(serveOpts);

  std::mutex m;
  std::condition_variable cv;
  bool started = false;
  bool done = false;

  ServeEngine::Job slow;
  slow.circuitText = std::string(corpusText(CorpusCircuit::Ami33));
  slow.backend = EngineBackend::SeqPair;
  slow.options.maxSweeps = 200000;
  slow.onProgress = [&](std::size_t, std::size_t, double) {
    std::lock_guard<std::mutex> lock(m);
    started = true;
    cv.notify_all();
  };
  slow.onDone = [&](const ServeEngine::JobOutcome&) {
    std::lock_guard<std::mutex> lock(m);
    done = true;
    cv.notify_all();
  };
  ServeEngine::Submission first = engine.submit(std::move(slow));
  ASSERT_TRUE(first.accepted);
  {
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [&] { return started; });
  }

  ServeEngine::Job second;
  second.circuitText = std::string(corpusText(CorpusCircuit::Apte));
  second.backend = EngineBackend::SeqPair;
  ServeEngine::Submission rejected = engine.submit(std::move(second));
  EXPECT_FALSE(rejected.accepted);
  // REJECTED replies still carry the key, so clients can probe the cache.
  EXPECT_NE(rejected.key, CacheKey{});
  EXPECT_EQ(engine.stats().rejected, 1u);

  EXPECT_TRUE(engine.cancel(first.id));
  std::unique_lock<std::mutex> lock(m);
  cv.wait(lock, [&] { return done; });
}

TEST(ServeEngineTest, DiskStoreSurvivesEngineRestartAndClears) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "als_serve_cache_test")
          .string();
  std::filesystem::remove_all(dir);

  const std::string_view text = corpusText(CorpusCircuit::Apte);
  EngineOptions options;
  options.maxSweeps = 64;
  options.numRestarts = 2;
  options.seed = 13;

  EngineResult firstLife;
  {
    ServeOptions serveOpts;
    serveOpts.workers = 1;
    serveOpts.cacheDir = dir;
    ServeEngine engine(serveOpts);
    CompletedJob cold = runJob(engine, text, EngineBackend::FlatBStar, options);
    ASSERT_EQ(cold.error, "");
    EXPECT_FALSE(cold.cacheHit);
    firstLife = cold.result;
  }  // engine torn down; only the directory persists

  ServeOptions serveOpts;
  serveOpts.workers = 1;
  serveOpts.cacheDir = dir;
  ServeEngine engine(serveOpts);
  CompletedJob warm = runJob(engine, text, EngineBackend::FlatBStar, options);
  ASSERT_EQ(warm.error, "");
  EXPECT_TRUE(warm.cacheHit)
      << "a restarted daemon must serve its predecessor's results";
  expectBitIdentical(warm.result, firstLife, "disk-promoted hit");

  engine.cache().clear();
  CompletedJob recomputed =
      runJob(engine, text, EngineBackend::FlatBStar, options);
  ASSERT_EQ(recomputed.error, "");
  EXPECT_FALSE(recomputed.cacheHit)
      << "clear() must drop the disk entries too, not just the memory map";
  expectBitIdentical(recomputed.result, firstLife, "recompute after clear");
  std::filesystem::remove_all(dir);
}

TEST(ResultCacheTest, FetchReusesCallerStorageAndMissesLeaveItUntouched) {
  ResultCache cache;
  const std::string_view text = corpusText(CorpusCircuit::Apte);
  EngineOptions options;
  options.maxSweeps = 32;
  const EngineResult computed = oracle(text, EngineBackend::SeqPair, options);
  const CacheKey key = keyOf(text, EngineBackend::SeqPair, options);

  EngineBackend backend = EngineBackend::HBStar;
  EngineResult result;
  result.cost = 123.0;
  EXPECT_FALSE(cache.fetch(key, backend, result));
  EXPECT_EQ(result.cost, 123.0) << "a miss must leave the outputs untouched";
  EXPECT_EQ(backend, EngineBackend::HBStar);

  cache.store(key, EngineBackend::SeqPair, computed);
  EXPECT_EQ(cache.size(), 1u);
  ASSERT_TRUE(cache.fetch(key, backend, result));
  EXPECT_EQ(backend, EngineBackend::SeqPair);
  expectBitIdentical(result, computed, "memory fetch");
  EXPECT_EQ(result.seconds, 0.0) << "seconds is not part of a result's "
                                    "identity and is not stored";

  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.fetch(key, backend, result));
}

// -------------------------------------------- integrity / recovery ---------

/// A structurally valid EngineResult that needs no engine run — the cache
/// stores whatever its caller hands it, so recovery tests can use cheap
/// synthetic entries with distinguishable contents.
EngineResult fakeResult(std::uint64_t tag) {
  EngineResult r;
  r.cost = 100.0 + static_cast<double>(tag) * 0.25;
  r.area = 400 + static_cast<Coord>(tag);
  r.hpwl = 70 + static_cast<Coord>(tag);
  r.movesTried = 10 * static_cast<std::size_t>(tag);
  r.sweeps = 4;
  r.restartsRun = 1;
  r.bestRestart = 0;
  r.bestSeed = tag;
  r.placement = Placement(std::vector<Rect>{
      {0, 0, 4, 5}, {4, 0, 3, static_cast<Coord>(1 + tag)}});
  return r;
}

std::string freshDir(const char* name) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / name).string();
  std::filesystem::remove_all(dir);
  return dir;
}

std::string cachePath(const std::string& dir, const CacheKey& key,
                      const char* ext = ".alsresult") {
  return (std::filesystem::path(dir) / (key.hex() + ext)).string();
}

std::string readWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void writeWholeFile(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.is_open()) << path;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::size_t countFiles(const std::string& dir, std::string_view ext) {
  std::size_t n = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ext) ++n;
  }
  return n;
}

/// Disarms the global fault injector when a test body exits, pass or fail —
/// a leaked plan would make every later disk write in the process fail.
struct FaultGuard {
  ~FaultGuard() { FaultInjector::global().reset(); }
};

TEST(ResultTextTest, ChecksumTrailerRejectsTruncationFlipsAndTrailingBytes) {
  std::string wire;
  writeResultText(EngineBackend::SeqPair, fakeResult(5), wire);
  EngineBackend backend = EngineBackend::FlatBStar;
  EngineResult parsed;
  ASSERT_EQ(parseResultText(wire, backend, parsed), "");
  expectBitIdentical(parsed, fakeResult(5), "synthetic round trip");

  // Every proper prefix must fail: truncation — the torn-write case — can
  // never be mistaken for a complete result.
  for (std::size_t n = 0; n < wire.size(); ++n) {
    EXPECT_NE(parseResultText(std::string_view(wire).substr(0, n), backend,
                              parsed),
              "")
        << "prefix of " << n << " bytes parsed cleanly";
  }
  // Single-byte damage anywhere breaks the seal (sampled stride here; the
  // fuzz suite sweeps random positions).
  for (std::size_t pos = 0; pos < wire.size(); pos += 7) {
    std::string flipped = wire;
    flipped[pos] = static_cast<char>(flipped[pos] ^ 0x04);
    EXPECT_NE(parseResultText(flipped, backend, parsed), "")
        << "flip at byte " << pos;
  }
  // Bytes after the trailer are an error, not ignored padding.
  EXPECT_NE(parseResultText(wire + "x", backend, parsed), "");
}

TEST(ResultCacheTest, ScrubQuarantinesDamageRemovesTmpAndKeepsSurvivors) {
  const std::string dir = freshDir("als_cache_scrub_test");
  const CacheKey k1{1, 1, 1}, k2{2, 2, 2}, k3{3, 3, 3}, k4{4, 4, 4};
  {
    ResultCache cache(dir);
    for (const auto& [k, tag] : std::initializer_list<
             std::pair<CacheKey, std::uint64_t>>{
             {k1, 1}, {k2, 2}, {k3, 3}, {k4, 4}}) {
      cache.store(k, EngineBackend::SeqPair, fakeResult(tag));
    }
  }
  // Damage the store the way crashes and disk rot do: a flipped byte, a
  // truncation, a foreign entry under the wrong key's filename, and an
  // orphaned half-write.  k3 stays intact.
  std::string bytes = readWholeFile(cachePath(dir, k1));
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x20);
  writeWholeFile(cachePath(dir, k1), bytes);
  const std::string b2 = readWholeFile(cachePath(dir, k2));
  writeWholeFile(cachePath(dir, k2), b2.substr(0, b2.size() * 3 / 5));
  writeWholeFile(cachePath(dir, k4), readWholeFile(cachePath(dir, k3)));
  writeWholeFile(cachePath(dir, k4, ".tmp"), "torn half-write");

  ResultCache second(dir);
  const ResultCache::Stats st = second.stats();
  EXPECT_EQ(st.tmpRemoved, 1u);
  EXPECT_EQ(st.quarantined, 3u)
      << "flipped, truncated and mislabeled entries must all be caught";
  EXPECT_EQ(second.totalEntries(), 1u);
  EngineBackend backend = EngineBackend::SeqPair;
  EngineResult out;
  EXPECT_FALSE(second.fetch(k1, backend, out));
  EXPECT_FALSE(second.fetch(k2, backend, out));
  EXPECT_FALSE(second.fetch(k4, backend, out))
      << "a valid payload under the wrong key must not be served";
  ASSERT_TRUE(second.fetch(k3, backend, out));
  expectBitIdentical(out, fakeResult(3), "intact survivor");
  EXPECT_EQ(countFiles(dir, ".corrupt"), 3u)
      << "quarantined files are kept for forensics";
  EXPECT_EQ(countFiles(dir, ".tmp"), 0u);
  std::filesystem::remove_all(dir);
}

TEST(ResultCacheTest, FetchQuarantinesCorruptionFoundAfterStartup) {
  const std::string dir = freshDir("als_cache_fetch_quarantine_test");
  const CacheKey key{7, 7, 7};
  ResultCache cache(dir);  // scrub sees an empty directory
  std::string text = "Key " + key.hex() + "\n";
  writeResultText(EngineBackend::SeqPair, fakeResult(7), text);
  writeWholeFile(cachePath(dir, key), text.substr(0, text.size() - 10));

  EngineBackend backend = EngineBackend::SeqPair;
  EngineResult out;
  EXPECT_FALSE(cache.fetch(key, backend, out))
      << "a truncated entry must read as a miss, never a result";
  EXPECT_EQ(cache.stats().quarantined, 1u);
  EXPECT_FALSE(std::filesystem::exists(cachePath(dir, key)));
  EXPECT_EQ(countFiles(dir, ".corrupt"), 1u);
  // The quarantined name is burned: a subsequent store + fetch works.
  cache.store(key, EngineBackend::SeqPair, fakeResult(7));
  ASSERT_TRUE(cache.fetch(key, backend, out));
  expectBitIdentical(out, fakeResult(7), "store after quarantine");
  std::filesystem::remove_all(dir);
}

TEST(ResultCacheTest, CapEvictsLeastRecentlyUsedAndItsDiskFile) {
  const std::string dir = freshDir("als_cache_lru_test");
  const CacheKey kA{10, 1, 1}, kB{11, 1, 1}, kC{12, 1, 1};
  ResultCache cache(dir, /*maxEntries=*/2);
  cache.store(kA, EngineBackend::SeqPair, fakeResult(1));
  cache.store(kB, EngineBackend::SeqPair, fakeResult(2));
  EngineBackend backend = EngineBackend::SeqPair;
  EngineResult out;
  ASSERT_TRUE(cache.fetch(kA, backend, out));  // promote: kB is now LRU
  cache.store(kC, EngineBackend::SeqPair, fakeResult(3));

  EXPECT_EQ(cache.stats().evicted, 1u);
  EXPECT_EQ(cache.totalEntries(), 2u);
  EXPECT_FALSE(cache.fetch(kB, backend, out))
      << "the promote must have made kB the eviction victim";
  EXPECT_TRUE(cache.fetch(kA, backend, out));
  EXPECT_TRUE(cache.fetch(kC, backend, out));
  EXPECT_EQ(countFiles(dir, ".alsresult"), 2u)
      << "eviction must remove the disk file too";
  std::filesystem::remove_all(dir);
}

TEST(ResultCacheTest, DiskSurvivorsCountAgainstTheCapOnRestart) {
  const std::string dir = freshDir("als_cache_restart_cap_test");
  const CacheKey k1{21, 1, 1}, k2{22, 1, 1}, k3{23, 1, 1}, k4{24, 1, 1};
  {
    ResultCache unbounded(dir);
    for (const auto& [k, tag] : std::initializer_list<
             std::pair<CacheKey, std::uint64_t>>{
             {k1, 1}, {k2, 2}, {k3, 3}, {k4, 4}}) {
      unbounded.store(k, EngineBackend::SeqPair, fakeResult(tag));
    }
  }
  ResultCache capped(dir, /*maxEntries=*/2);
  EXPECT_EQ(capped.stats().evicted, 2u);
  EXPECT_EQ(capped.totalEntries(), 2u);
  EXPECT_EQ(countFiles(dir, ".alsresult"), 2u);
  // Unpromoted survivors have no recency, so the cap drops them in
  // descending key order — deterministically the two largest keys.
  EngineBackend backend = EngineBackend::SeqPair;
  EngineResult out;
  EXPECT_TRUE(capped.fetch(k1, backend, out));
  EXPECT_TRUE(capped.fetch(k2, backend, out));
  EXPECT_FALSE(capped.fetch(k3, backend, out));
  EXPECT_FALSE(capped.fetch(k4, backend, out));
  std::filesystem::remove_all(dir);
}

TEST(ResultCacheTest, UnusableDirectoryDegradesToMemoryOnly) {
  const std::string blocker = freshDir("als_cache_not_a_dir");
  writeWholeFile(blocker, "a regular file where the store dir should be\n");
  ResultCache cache(blocker);
  EXPECT_TRUE(cache.stats().memoryOnly);
  const CacheKey key{31, 1, 1};
  cache.store(key, EngineBackend::SeqPair, fakeResult(1));
  EngineBackend backend = EngineBackend::SeqPair;
  EngineResult out;
  ASSERT_TRUE(cache.fetch(key, backend, out))
      << "degraded mode must still serve from memory";
  expectBitIdentical(out, fakeResult(1), "memory-only fetch");
  std::filesystem::remove(blocker);
}

TEST(ResultCacheTest, RepeatedWriteFailuresDegradeToMemoryOnly) {
  FaultGuard guard;
  ASSERT_EQ(FaultInjector::global().configure("write-fail@1+"), "");
  const std::string dir = freshDir("als_cache_enospc_test");
  ResultCache cache(dir);
  const CacheKey k1{41, 1, 1}, k2{42, 1, 1}, k3{43, 1, 1}, k4{44, 1, 1};
  cache.store(k1, EngineBackend::SeqPair, fakeResult(1));
  cache.store(k2, EngineBackend::SeqPair, fakeResult(2));
  EXPECT_FALSE(cache.stats().memoryOnly) << "two failures are a blip";
  cache.store(k3, EngineBackend::SeqPair, fakeResult(3));
  const ResultCache::Stats st = cache.stats();
  EXPECT_EQ(st.diskFailures, 3u);
  EXPECT_TRUE(st.memoryOnly)
      << "three consecutive failures must trip the degradation latch";
  cache.store(k4, EngineBackend::SeqPair, fakeResult(4));
  EXPECT_EQ(cache.stats().diskFailures, 3u)
      << "degraded mode must stop attempting disk writes";
  EXPECT_EQ(countFiles(dir, ".alsresult"), 0u);
  EngineBackend backend = EngineBackend::SeqPair;
  EngineResult out;
  ASSERT_TRUE(cache.fetch(k1, backend, out));
  expectBitIdentical(out, fakeResult(1), "fetch through a dead disk");
  std::filesystem::remove_all(dir);
}

TEST(ResultCacheTest, TruncatedWriteIsCaughtByTheNextLifeScrub) {
  FaultGuard guard;
  const std::string dir = freshDir("als_cache_trunc_test");
  const CacheKey key{51, 1, 1};
  {
    ASSERT_EQ(FaultInjector::global().configure("write-trunc@1:40"), "");
    ResultCache cache(dir);
    cache.store(key, EngineBackend::SeqPair, fakeResult(1));
    EXPECT_EQ(countFiles(dir, ".alsresult"), 1u)
        << "a torn write still renames into place — that is the hazard";
  }
  FaultInjector::global().reset();
  ResultCache second(dir);
  EXPECT_EQ(second.stats().quarantined, 1u);
  EXPECT_EQ(second.totalEntries(), 0u);
  EngineBackend backend = EngineBackend::SeqPair;
  EngineResult out;
  EXPECT_FALSE(second.fetch(key, backend, out));
  std::filesystem::remove_all(dir);
}

TEST(ResultCacheTest, TornRenameLeavesTmpThatTheNextLifeScrubs) {
  FaultGuard guard;
  const std::string dir = freshDir("als_cache_torn_rename_test");
  const CacheKey key{52, 1, 1};
  {
    ASSERT_EQ(FaultInjector::global().configure("rename-torn@1"), "");
    ResultCache cache(dir);
    cache.store(key, EngineBackend::SeqPair, fakeResult(1));
    EXPECT_EQ(countFiles(dir, ".alsresult"), 0u);
    EXPECT_EQ(countFiles(dir, ".tmp"), 1u);
  }
  FaultInjector::global().reset();
  ResultCache second(dir);
  EXPECT_EQ(second.stats().tmpRemoved, 1u);
  EXPECT_EQ(second.totalEntries(), 0u);
  EXPECT_EQ(countFiles(dir, ".tmp"), 0u);
  std::filesystem::remove_all(dir);
}

TEST(FaultInjectorTest, ConfigureParsesValidSpecsAndRejectsGarbage) {
  FaultGuard guard;
  FaultInjector& fi = FaultInjector::global();
  EXPECT_EQ(fi.configure("write-fail@2"), "");
  EXPECT_EQ(fi.configure("write-fail@3+,write-trunc@1:10,rename-torn@2"), "");
  EXPECT_EQ(fi.configure("crash@store-after-write:1"), "");
  EXPECT_TRUE(fi.active());
  EXPECT_NE(fi.configure("write-fail@0"), "") << "counts are 1-based";
  EXPECT_FALSE(fi.active()) << "a configure error must fail closed";
  EXPECT_NE(fi.configure("write-fail@x"), "");
  EXPECT_NE(fi.configure("write-trunc@1"), "") << "trunc needs a byte count";
  EXPECT_NE(fi.configure("frobnicate@1"), "")
      << "an unknown directive silently dropped would make chaos tests pass "
         "vacuously";
  fi.reset();
  EXPECT_FALSE(fi.active());
}

// ------------------------------------------------ deadlines / health -------

TEST(ServeEngineTest, RecoversFromDamagedStoreByQuarantineAndRecompute) {
  const std::string dir = freshDir("als_serve_recovery_test");
  const std::string_view text = corpusText(CorpusCircuit::Apte);
  EngineOptions optA;
  optA.maxSweeps = 64;
  optA.numRestarts = 2;
  optA.seed = 41;
  EngineOptions optB = optA;
  optB.seed = 42;

  EngineResult resultA, resultB;
  CacheKey keyA, keyB;
  {
    ServeOptions serveOpts;
    serveOpts.workers = 1;
    serveOpts.cacheDir = dir;
    ServeEngine engine(serveOpts);
    CompletedJob a = runJob(engine, text, EngineBackend::SeqPair, optA);
    CompletedJob b = runJob(engine, text, EngineBackend::SeqPair, optB);
    ASSERT_EQ(a.error, "");
    ASSERT_EQ(b.error, "");
    resultA = a.result;
    resultB = b.result;
    keyA = a.key;
    keyB = b.key;
  }
  // Flip one byte of keyA's entry and plant a torn half-write next to it.
  std::string bytes = readWholeFile(cachePath(dir, keyA));
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x01);
  writeWholeFile(cachePath(dir, keyA), bytes);
  writeWholeFile(cachePath(dir, keyA, ".tmp"), "torn half-write");

  ServeOptions serveOpts;
  serveOpts.workers = 1;
  serveOpts.cacheDir = dir;
  ServeEngine engine(serveOpts);
  const ServeStats boot = engine.stats();
  EXPECT_EQ(boot.quarantined, 1u);
  EXPECT_FALSE(boot.memoryOnly);

  CompletedJob a = runJob(engine, text, EngineBackend::SeqPair, optA);
  ASSERT_EQ(a.error, "");
  EXPECT_FALSE(a.cacheHit) << "a quarantined entry must never be served";
  expectBitIdentical(a.result, resultA, "recompute after corruption");
  CompletedJob b = runJob(engine, text, EngineBackend::SeqPair, optB);
  ASSERT_EQ(b.error, "");
  EXPECT_TRUE(b.cacheHit) << "corruption of one entry must not poison others";
  expectBitIdentical(b.result, resultB, "intact neighbor still served");
  std::filesystem::remove_all(dir);
}

TEST(ServeEngineTest, WallDeadlineDeliversBestSoFarAndNeverCaches) {
  ServeOptions serveOpts;
  serveOpts.workers = 1;
  serveOpts.progressInterval = 4;
  ServeEngine engine(serveOpts);

  const std::string_view text = corpusText(CorpusCircuit::Ami33);
  EngineOptions longOpts;
  longOpts.maxSweeps = 200000;
  longOpts.numRestarts = 2;
  longOpts.seed = 5;

  CompletedJob out = runJob(engine, text, EngineBackend::SeqPair, longOpts,
                            /*deadlineSeconds=*/0.3);
  ASSERT_EQ(out.error, "");
  EXPECT_TRUE(out.deadlineExpired);
  EXPECT_FALSE(out.cancelled) << "deadline and cancel are distinct outcomes";
  EXPECT_FALSE(out.cacheHit);
  EXPECT_FALSE(out.result.placement.empty()) << "the snapshot is a usable "
                                                "best-so-far placement";
  EXPECT_EQ(engine.cache().size(), 0u)
      << "a cut-short result is not a pure function of the key and must "
         "never be cached";
  // The deadline knobs are not part of the cache key, so if the cut-short
  // result HAD been stored this resubmission would hit and serve it.
  CompletedJob again = runJob(engine, text, EngineBackend::SeqPair, longOpts,
                              /*deadlineSeconds=*/0.3);
  ASSERT_EQ(again.error, "");
  EXPECT_FALSE(again.cacheHit);
  EXPECT_TRUE(again.deadlineExpired);
  EXPECT_EQ(engine.stats().deadlineExpired, 2u);
}

// The largest `OPT deadline-ms` the protocol accepts lands past the steady
// clock's range: it arms no deadline, so the job runs to completion as a
// plain miss and is cached (it once overflowed into an already-expired
// deadline that cut the job off before its first sweep).
TEST(ServeEngineTest, OutOfRangeWallDeadlineIsNoDeadline) {
  ServeOptions serveOpts;
  serveOpts.workers = 1;
  ServeEngine engine(serveOpts);

  const std::string_view text = corpusText(CorpusCircuit::Apte);
  EngineOptions options;
  options.maxSweeps = 64;
  options.numRestarts = 2;
  options.seed = 23;
  const double hugeDeadline =
      static_cast<double>(std::numeric_limits<std::uint64_t>::max()) / 1000.0;
  CompletedJob out = runJob(engine, text, EngineBackend::SeqPair, options,
                            hugeDeadline);
  ASSERT_EQ(out.error, "");
  EXPECT_FALSE(out.deadlineExpired);
  EXPECT_FALSE(out.cancelled);
  EXPECT_FALSE(out.cacheHit);
  EXPECT_EQ(out.result.sweeps, 64u);
  EXPECT_EQ(engine.cache().size(), 1u) << "a complete run is cached";
  expectBitIdentical(out.result,
                     oracle(text, EngineBackend::SeqPair, options),
                     "huge deadline vs no deadline");
  CompletedJob again = runJob(engine, text, EngineBackend::SeqPair, options,
                              hugeDeadline);
  EXPECT_TRUE(again.cacheHit);
}

TEST(ServeEngineTest, SweepDeadlineIsDeterministicAndBeatenByCacheHits) {
  ServeOptions serveOpts;
  serveOpts.workers = 1;
  serveOpts.progressInterval = 32;
  ServeEngine engine(serveOpts);

  const std::string_view text = corpusText(CorpusCircuit::Apte);
  EngineOptions options;
  options.maxSweeps = 200000;
  options.numRestarts = 2;
  options.seed = 21;

  CompletedJob first = runJob(engine, text, EngineBackend::SeqPair, options,
                              0.0, /*deadlineSweeps=*/64);
  ASSERT_EQ(first.error, "");
  EXPECT_TRUE(first.deadlineExpired);
  EXPECT_EQ(engine.cache().size(), 0u);
  CompletedJob second = runJob(engine, text, EngineBackend::SeqPair, options,
                               0.0, /*deadlineSweeps=*/64);
  ASSERT_EQ(second.error, "");
  EXPECT_TRUE(second.deadlineExpired);
  EXPECT_FALSE(second.cacheHit);
  // Sweep deadlines fire at round boundaries, a sweep-counted (not timed)
  // event — the best-so-far snapshot is as deterministic as a full run.
  expectBitIdentical(second.result, first.result,
                     "sweep-deadlined snapshot determinism");

  // Tempering jobs run through the same round hook: their rounds stay the
  // exchange interval (8 sweeps), the deadline fires at the first barrier
  // past 64 total sweeps (2 replicas x 4 rounds), and PROGRESS arrives at
  // the first barrier at or past each 32-sweep multiple per replica.
  EngineOptions tempering = options;
  tempering.tempering = true;
  tempering.exchangeInterval = 8;
  struct Event {
    std::size_t round, sweeps;
    bool operator==(const Event&) const = default;
  };
  std::vector<Event> eventsA, eventsB;
  auto recordInto = [](std::vector<Event>& events) {
    return [&events](std::size_t round, std::size_t sweeps, double) {
      events.push_back({round, sweeps});  // worker thread; read after onDone
    };
  };
  CompletedJob temperedA =
      runJob(engine, text, EngineBackend::SeqPair, tempering, 0.0,
             /*deadlineSweeps=*/64, recordInto(eventsA));
  ASSERT_EQ(temperedA.error, "");
  EXPECT_TRUE(temperedA.deadlineExpired);
  EXPECT_EQ(engine.cache().size(), 0u)
      << "a sweep-deadlined tempering snapshot must never be cached";
  CompletedJob temperedB =
      runJob(engine, text, EngineBackend::SeqPair, tempering, 0.0,
             /*deadlineSweeps=*/64, recordInto(eventsB));
  ASSERT_EQ(temperedB.error, "");
  EXPECT_TRUE(temperedB.deadlineExpired);
  EXPECT_FALSE(temperedB.cacheHit);
  expectBitIdentical(temperedB.result, temperedA.result,
                     "sweep-deadlined tempering snapshot determinism");
  ASSERT_FALSE(eventsA.empty()) << "tempering jobs must stream PROGRESS";
  EXPECT_EQ(eventsA, eventsB);
  EXPECT_EQ(eventsA.front().round, 1u);
  EXPECT_EQ(eventsA.front().sweeps, 64u);

  // A cache hit beats a deadline: serving a known-complete answer costs one
  // copy, so even an absurdly tight budget reports `hit`, not `deadline`.
  EngineOptions small;
  small.maxSweeps = 64;
  small.numRestarts = 2;
  small.seed = 22;
  CompletedJob cold = runJob(engine, text, EngineBackend::SeqPair, small);
  ASSERT_EQ(cold.error, "");
  EXPECT_FALSE(cold.cacheHit);
  CompletedJob hit = runJob(engine, text, EngineBackend::SeqPair, small, 0.0,
                            /*deadlineSweeps=*/1);
  ASSERT_EQ(hit.error, "");
  EXPECT_TRUE(hit.cacheHit);
  EXPECT_FALSE(hit.deadlineExpired);
  expectBitIdentical(hit.result, cold.result, "hit beats deadline");
}

TEST(ServeEngineTest, StatsSurfaceCacheHealthCounters) {
  const std::string dir = freshDir("als_serve_capped_test");
  ServeOptions serveOpts;
  serveOpts.workers = 1;
  serveOpts.cacheDir = dir;
  serveOpts.cacheCapacity = 1;
  ServeEngine engine(serveOpts);

  const std::string_view text = corpusText(CorpusCircuit::Apte);
  EngineOptions options;
  options.maxSweeps = 48;
  options.seed = 31;
  CompletedJob first = runJob(engine, text, EngineBackend::SeqPair, options);
  ASSERT_EQ(first.error, "");
  options.seed = 32;
  CompletedJob second = runJob(engine, text, EngineBackend::SeqPair, options);
  ASSERT_EQ(second.error, "");

  const ServeStats stats = engine.stats();
  EXPECT_EQ(stats.evicted, 1u)
      << "engine stats must surface the store's eviction count";
  EXPECT_EQ(stats.quarantined, 0u);
  EXPECT_FALSE(stats.memoryOnly);
  EXPECT_EQ(countFiles(dir, ".alsresult"), 1u);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace als
