// Layer probes of a traced run: the decode kernels, the cost model, the io
// layer and the result cache, each timed through its public entry point on
// states drawn from the workload seed.  Each probe times batches of calls
// and reports the median batch's per-call time, so one slow phase of the
// machine moves a probe by at most one batch.
//
// The probes double as checks: the incremental / partial decoders must
// reproduce the full decode exactly, and every stored entry must fetch back.
#include <filesystem>
#include <string>
#include <vector>

#include "bstar/bstar_tree.h"
#include "bstar/pack.h"
#include "common.h"
#include "cost/cost_model.h"
#include "io/benchmark_format.h"
#include "io/corpus.h"
#include "io/serve_protocol.h"
#include "runtime/result_cache.h"
#include "seqpair/packer.h"
#include "seqpair/sequence_pair.h"
#include "slicing/polish.h"
#include "util/rng.h"

namespace alsbench {

namespace {

constexpr std::size_t kBatches = 10;
constexpr std::size_t kCallsPerBatch = 100;

/// Per-call microseconds of the median batch; `call(i)` returns the seconds
/// it spent inside the timed entry point.
template <class Call>
double probeUs(const char* span, Call call) {
  std::vector<double> perCall;
  for (std::size_t b = 0; b < kBatches; ++b) {
    Span s(span, 0);
    double seconds = 0.0;
    for (std::size_t i = 0; i < kCallsPerBatch; ++i) seconds += call(b * kCallsPerBatch + i);
    perCall.push_back(seconds * 1e6 / static_cast<double>(kCallsPerBatch));
  }
  return median(perCall);
}

/// Seconds spent in `f()`.
template <class F>
double timed(F f) {
  const double t0 = Tracer::global().now();
  f();
  return Tracer::global().now() - t0;
}

void swapRandom(als::SequencePair& sp, als::Rng& rng) {
  const std::size_t n = sp.size();
  const std::size_t i = rng.index(n), j = rng.index(n);
  if (rng.coin()) {
    sp.swapAlphaAt(i, j);
  } else {
    sp.swapAlphaModules(i, j);
    sp.swapBetaModules(i, j);
  }
}

void kernelProbes(const RunConfig& cfg, Report& report, als::CorpusCircuit which) {
  const Circuit circuit = als::loadCorpusCircuit(which);
  const std::size_t n = circuit.moduleCount();
  const std::string suffix = "." + std::to_string(n);
  std::vector<als::Coord> w(n), h(n);
  std::vector<bool> rotatable(n);
  for (std::size_t m = 0; m < n; ++m) {
    w[m] = circuit.module(m).w;
    h[m] = circuit.module(m).h;
    rotatable[m] = circuit.module(m).rotatable;
  }
  als::Rng rng(mixSeed(cfg.seed, 400 + n));

  // Sequence pair: full LCS pack and the journaled incremental pack of the
  // same move stream; the two must agree rect for rect.
  {
    als::SequencePair sp = als::SequencePair::random(n, rng);
    als::SeqPairPackScratch fullScratch, incScratch;
    als::Placement full, inc;
    std::vector<std::size_t> moved;
    bool agree = true;
    const double incr = probeUs("seqpair.packSequencePairIncrementalInto", [&](std::size_t) {
      swapRandom(sp, rng);
      moved.clear();
      return timed([&] {
        als::packSequencePairIncrementalInto(sp, w, h, als::PackStrategy::Auto,
                                             incScratch, inc, moved);
      });
    });
    const double fullPack = probeUs("seqpair.packSequencePairInto", [&](std::size_t) {
      swapRandom(sp, rng);
      const double t = timed([&] {
        als::packSequencePairInto(sp, w, h, als::PackStrategy::Auto, fullScratch, full);
      });
      moved.clear();
      als::packSequencePairIncrementalInto(sp, w, h, als::PackStrategy::Auto, incScratch,
                                           inc, moved);
      agree = agree && inc.rects() == full.rects();
      return t;
    });
    if (!agree) report.fail("probe seqpair" + suffix + ": incremental pack != full pack");
    report.layer("seqpair.pack_full_us" + suffix, fullPack, "us");
    report.layer("seqpair.pack_incr_us" + suffix, incr, "us");
  }

  // B*-tree: full contour pack and the partial repack of the same trees.
  {
    als::BStarTree tree = als::BStarTree::random(n, rng);
    als::BStarPackScratch fullScratch, partScratch;
    als::Placement full, part;
    bool agree = true;
    const double partial = probeUs("bstar.packBStarPartialInto", [&](std::size_t) {
      tree.perturb(rng);
      return timed([&] { als::packBStarPartialInto(tree, w, h, partScratch, part); });
    });
    const double fullPack = probeUs("bstar.packBStarInto", [&](std::size_t) {
      tree.perturb(rng);
      const double t = timed([&] { als::packBStarInto(tree, w, h, fullScratch, full); });
      als::packBStarPartialInto(tree, w, h, partScratch, part);
      agree = agree && part.rects() == full.rects();
      return t;
    });
    if (!agree) report.fail("probe bstar" + suffix + ": partial repack != full pack");
    report.layer("bstar.pack_full_us" + suffix, fullPack, "us");
    report.layer("bstar.pack_partial_us" + suffix, partial, "us");
  }

  // Slicing: Polish evaluation after each Wong-Liu move, from a mixed
  // expression (10n warm-up moves away from the initial row).
  {
    als::PolishExpr expr = als::PolishExpr::initial(n);
    for (std::size_t i = 0; i < 10 * n; ++i) expr.perturb(rng);
    als::PolishEvalScratch scratch;
    als::SlicedResult out;
    report.layer("slicing.eval_us" + suffix,
                 probeUs("slicing.evaluatePolishInto", [&](std::size_t) {
                   expr.perturb(rng);
                   return timed([&] {
                     als::evaluatePolishInto(expr, w, h, rotatable, 32, scratch, out);
                   });
                 }),
                 "us");
  }

  // Cost model: hinted propose + commit along a sequence-pair move stream,
  // and the from-scratch evaluation of the same placements.
  {
    als::CostModel model(circuit, als::makeObjective(circuit, als::ObjectiveWeights{}));
    als::SequencePair sp = als::SequencePair::random(n, rng);
    als::SeqPairPackScratch scratch;
    als::Placement p;
    std::vector<std::size_t> moved;
    als::packSequencePairIncrementalInto(sp, w, h, als::PackStrategy::Auto, scratch, p,
                                         moved);
    model.reset(p);
    bool exact = true;
    const double propose = probeUs("cost.CostModel.propose", [&](std::size_t) {
      swapRandom(sp, rng);
      moved.clear();
      als::packSequencePairIncrementalInto(sp, w, h, als::PackStrategy::Auto, scratch, p,
                                           moved);
      double c = 0.0;
      const double t = timed([&] { c = model.propose(p, moved); });
      model.commit();
      exact = exact && c == model.evaluate(p);
      return t;
    });
    const double evaluate = probeUs("cost.CostModel.evaluate", [&](std::size_t) {
      swapRandom(sp, rng);
      moved.clear();
      als::packSequencePairIncrementalInto(sp, w, h, als::PackStrategy::Auto, scratch, p,
                                           moved);
      double c = 0.0;
      const double t = timed([&] { c = model.evaluate(p); });
      exact = exact && c > 0.0;
      return t;
    });
    if (!exact) report.fail("probe cost" + suffix + ": propose != evaluate");
    report.layer("cost.propose_us" + suffix, propose, "us");
    report.layer("cost.evaluate_us" + suffix, evaluate, "us");
  }
}

/// A legal result of `circuit` to serialize and cache: a packed random
/// sequence pair with its exact aggregates.
EngineResult sampleResult(const Circuit& circuit, als::Rng& rng) {
  const std::size_t n = circuit.moduleCount();
  std::vector<als::Coord> w(n), h(n);
  for (std::size_t m = 0; m < n; ++m) {
    w[m] = circuit.module(m).w;
    h[m] = circuit.module(m).h;
  }
  EngineResult r;
  r.placement = als::packSequencePair(als::SequencePair::random(n, rng), w, h);
  r.area = r.placement.boundingBox().area();
  r.hpwl = als::totalHpwl(r.placement, circuit.netPins());
  r.cost = static_cast<double>(r.area);
  r.movesTried = 1;
  r.sweeps = 1;
  return r;
}

}  // namespace

void runLayerProbes(const RunConfig& cfg, Report& report) {
  Tracer::global().enable(true);
  for (als::CorpusCircuit which : als::largeCorpusCircuits()) {
    kernelProbes(cfg, report, which);
  }

  // ---- io ----
  const std::string_view text = als::corpusText(als::CorpusCircuit::N300);
  const Circuit n300 = als::loadCorpusCircuit(als::CorpusCircuit::N300);
  als::Rng rng(mixSeed(cfg.seed, 500));
  {
    std::vector<double> ms;
    for (int i = 0; i < 20; ++i) {
      Span s("io.parseBenchmark", 0);
      als::ParseResult parsed = als::parseBenchmark(text);
      ms.push_back(s.stop() * 1e3);
      if (!parsed.ok()) report.fail("probe io: n300 does not parse");
    }
    report.layer("io.parse_ms", median(ms), "ms");
  }
  std::string scratch;
  als::EngineOptions options;
  report.layer("io.cache_key_us", probeUs("io.makeCacheKey", [&](std::size_t i) {
                 options.seed = i;
                 return timed([&] {
                   als::makeCacheKey(text, EngineBackend::SeqPair, options, scratch);
                 });
               }),
               "us");
  const EngineResult sample = sampleResult(n300, rng);
  {
    std::string wire;
    EngineResult back;
    EngineBackend backend = EngineBackend::FlatBStar;
    bool roundTrips = true;
    report.layer("io.result_text_us", probeUs("io.resultText", [&](std::size_t) {
                   std::string err;
                   const double t = timed([&] {
                     wire.clear();
                     als::writeResultText(EngineBackend::SeqPair, sample, wire);
                     err = als::parseResultText(wire, backend, back);
                   });
                   roundTrips = roundTrips && err.empty() &&
                                back.placement.rects() == sample.placement.rects();
                   return t;
                 }),
                 "us");
    if (!roundTrips) report.fail("probe io: ALSRESULT text does not round-trip");
  }

  // ---- result cache ----
  {
    const std::string dir = cfg.workDir + "/probe-store";
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    const Circuit n100 = als::loadCorpusCircuit(als::CorpusCircuit::N100);
    const EngineResult entry = sampleResult(n100, rng);
    auto keyOf = [](std::size_t i) {
      return als::CacheKey{0x5eedull, 0x0b7ull, static_cast<std::uint64_t>(i)};
    };
    {
      als::ResultCache cache(dir);
      report.layer("result_cache.store_us",
                   probeUs("result_cache.store", [&](std::size_t i) {
                     return timed([&] { cache.store(keyOf(i), EngineBackend::SeqPair, entry); });
                   }),
                   "us");
    }
    {
      als::ResultCache cache(dir);  // fresh: every entry is on disk only
      EngineResult out;
      EngineBackend backend = EngineBackend::FlatBStar;
      bool found = true;
      report.layer("result_cache.fetch_us.disk",
                   probeUs("result_cache.fetch.disk", [&](std::size_t i) {
                     bool hit = false;
                     const double t = timed([&] { hit = cache.fetch(keyOf(i), backend, out); });
                     found = found && hit && out.placement.rects() == entry.placement.rects();
                     return t;
                   }),
                   "us");
      report.layer("result_cache.fetch_us.memory",
                   probeUs("result_cache.fetch.memory", [&](std::size_t) {
                     bool hit = false;
                     const double t = timed([&] { hit = cache.fetch(keyOf(7), backend, out); });
                     found = found && hit;
                     return t;
                   }),
                   "us");
      if (!found) report.fail("probe result_cache: stored entry not fetched");
    }
    std::vector<double> ms;
    for (int i = 0; i < 5; ++i) {
      Span s("result_cache.scrub", 0);
      als::ResultCache cache(dir);
      ms.push_back(s.stop() * 1e3);
    }
    report.layer("result_cache.scrub_ms", median(ms), "ms");
    std::filesystem::remove_all(dir, ec);
  }
  Tracer::global().enable(false);
}

}  // namespace alsbench
