// Randomized differential tests ("fuzz") for the geometric substrates the
// placers build on: contour, profiles, slides, macro packing — plus the
// benchmark parser, which must turn arbitrarily corrupted text into a clean
// error (never a crash, assert or leak; ci.sh runs this suite under
// ASan/UBSan).  The geometric suites check the optimized structure against
// a brute-force oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "bstar/contour.h"
#include "bstar/pack.h"
#include "engine/knobs.h"
#include "geom/profile.h"
#include "io/benchmark_format.h"
#include "io/corpus.h"
#include "io/serve_protocol.h"
#include "util/rng.h"

namespace als {
namespace {

TEST(ContourFuzz, MatchesArrayOracle) {
  // Oracle: plain array over [0, W) holding the height of every column.
  constexpr Coord kWidth = 200;
  Rng rng(101);
  for (int round = 0; round < 50; ++round) {
    Contour contour;
    std::vector<Coord> oracle(kWidth, 0);
    for (int step = 0; step < 60; ++step) {
      Coord x1 = rng.uniformInt(0, kWidth - 2);
      Coord x2 = rng.uniformInt(x1 + 1, kWidth - 1);
      if (rng.coin()) {
        Coord h = rng.uniformInt(0, 50);
        contour.raise(x1, x2, h);
        for (Coord x = x1; x < x2; ++x) oracle[static_cast<std::size_t>(x)] = h;
      } else {
        Coord expect = 0;
        for (Coord x = x1; x < x2; ++x) {
          expect = std::max(expect, oracle[static_cast<std::size_t>(x)]);
        }
        ASSERT_EQ(contour.maxOver(x1, x2), expect)
            << "round " << round << " step " << step;
      }
    }
  }
}

TEST(ProfileFuzz, TopProfileMatchesPointwiseOracle) {
  Rng rng(103);
  for (int round = 0; round < 100; ++round) {
    std::vector<Rect> rects;
    std::size_t n = 1 + rng.index(8);
    for (std::size_t i = 0; i < n; ++i) {
      rects.push_back({rng.uniformInt(0, 40), rng.uniformInt(0, 40),
                       rng.uniformInt(1, 20), rng.uniformInt(1, 20)});
    }
    auto top = topProfile(rects);
    // Pointwise check at segment midpoints and random x.
    auto oracleAt = [&](Coord x) {
      Coord best = INT64_MIN;
      for (const Rect& r : rects) {
        if (r.xlo() <= x && x < r.xhi()) best = std::max(best, r.yhi());
      }
      return best;
    };
    for (const ProfileStep& s : top) {
      ASSERT_LT(s.lo, s.hi);
      ASSERT_EQ(oracleAt(s.lo), s.v);
      ASSERT_EQ(oracleAt(s.hi - 1), s.v);
    }
    for (int probe = 0; probe < 20; ++probe) {
      Coord x = rng.uniformInt(0, 60);
      Coord oracle = oracleAt(x);
      Coord got = INT64_MIN;
      for (const ProfileStep& s : top) {
        if (s.lo <= x && x < s.hi) got = s.v;
      }
      ASSERT_EQ(got, oracle) << "x=" << x;
    }
  }
}

TEST(SlideFuzz, ContactIsMinimalLegalOffset) {
  Rng rng(107);
  for (int round = 0; round < 200; ++round) {
    auto randomRects = [&](std::size_t maxN) {
      std::vector<Rect> v;
      std::size_t n = 1 + rng.index(maxN);
      for (std::size_t i = 0; i < n; ++i) {
        v.push_back({rng.uniformInt(0, 30), rng.uniformInt(0, 30),
                     rng.uniformInt(1, 12), rng.uniformInt(1, 12)});
      }
      return v;
    };
    std::vector<Rect> a = randomRects(5);
    std::vector<Rect> b = randomRects(5);
    Coord dx = slideContactX(a, b);
    if (dx == noContact) {
      // No pair shares a y-range: any offset is overlap-free.
      for (const Rect& ra : a) {
        for (const Rect& rb : b) {
          ASSERT_FALSE(ra.ylo() < rb.yhi() && rb.ylo() < ra.yhi());
        }
      }
      continue;
    }
    auto overlapsAt = [&](Coord offset) {
      for (const Rect& ra : a) {
        for (const Rect& rb : b) {
          if (ra.overlaps(rb.translated(offset, 0))) return true;
        }
      }
      return false;
    };
    ASSERT_FALSE(overlapsAt(dx)) << "contact offset must be legal";
    ASSERT_TRUE(overlapsAt(dx - 1)) << "one step left must collide";
  }
}

TEST(SlideFuzz, VerticalMirrorsHorizontal) {
  // slideContactY on transposed rect sets equals slideContactX.
  Rng rng(109);
  auto transpose = [](std::vector<Rect> v) {
    for (Rect& r : v) r = {r.y, r.x, r.h, r.w};
    return v;
  };
  for (int round = 0; round < 100; ++round) {
    std::vector<Rect> a, b;
    for (std::size_t i = 0; i < 3; ++i) {
      a.push_back({rng.uniformInt(0, 20), rng.uniformInt(0, 20),
                   rng.uniformInt(1, 8), rng.uniformInt(1, 8)});
      b.push_back({rng.uniformInt(0, 20), rng.uniformInt(0, 20),
                   rng.uniformInt(1, 8), rng.uniformInt(1, 8)});
    }
    ASSERT_EQ(slideContactX(a, b), slideContactY(transpose(a), transpose(b)));
  }
}

TEST(MacroPackFuzz, RandomMacroTreesStayLegal) {
  Rng rng(113);
  for (int round = 0; round < 60; ++round) {
    // Build 3-6 macros, each a small packed placement.
    std::size_t macroCount = 3 + rng.index(4);
    std::vector<Macro> macros;
    std::size_t moduleId = 0;
    for (std::size_t m = 0; m < macroCount; ++m) {
      Placement p;
      std::vector<ModuleId> owners;
      Coord x = 0;
      std::size_t rectCount = 1 + rng.index(3);
      for (std::size_t r = 0; r < rectCount; ++r) {
        Coord w = rng.uniformInt(2, 10), h = rng.uniformInt(2, 10);
        p.push({x, rng.uniformInt(0, 6), w, h});
        owners.push_back(moduleId++);
        x += w;
      }
      macros.push_back(Macro::fromPlacement(p, owners));
    }
    BStarTree tree = BStarTree::random(macroCount, rng);
    PackedMacros packed = packMacros(tree, macros, moduleId);
    ASSERT_TRUE(packed.placement.isLegal()) << "round " << round;
    Rect bb = packed.placement.boundingBox();
    ASSERT_LE(bb.xhi(), packed.width);
    ASSERT_LE(bb.yhi(), packed.height);
  }
}

TEST(MacroPackFuzz, PerturbedMacroTreesStayLegal) {
  Rng rng(127);
  std::vector<Macro> macros;
  std::size_t moduleId = 0;
  for (std::size_t m = 0; m < 5; ++m) {
    Placement p;
    std::vector<ModuleId> owners;
    p.push({0, 0, rng.uniformInt(3, 12), rng.uniformInt(3, 12)});
    owners.push_back(moduleId++);
    p.push({p[0].w, 0, rng.uniformInt(3, 12), rng.uniformInt(2, 6)});
    owners.push_back(moduleId++);
    macros.push_back(Macro::fromPlacement(p, owners));
  }
  BStarTree tree(5);
  for (int step = 0; step < 400; ++step) {
    tree.perturb(rng);
    PackedMacros packed = packMacros(tree, macros, moduleId);
    ASSERT_TRUE(packed.placement.isLegal()) << "step " << step;
  }
}

// --- benchmark parser ----------------------------------------------------

/// A parse attempt is "clean" when it either fails with a message or
/// succeeds with a circuit that passes validation and carries a hierarchy —
/// the downstream placers' entry contract.
void expectCleanParse(std::string_view text, const char* what) {
  ParseResult r = parseBenchmark(text);
  if (r.ok()) {
    std::string why;
    EXPECT_TRUE(r.circuit.validate(&why)) << what << ": " << why;
    EXPECT_FALSE(r.circuit.hierarchy().empty()) << what;
    EXPECT_GT(r.circuit.moduleCount(), 0u) << what;
  } else {
    EXPECT_FALSE(r.error.empty()) << what;
  }
}

TEST(ParserFuzz, EveryTruncationFailsCleanly) {
  // Apte carries a Power section and Ami33 both Power and Shape, so every
  // prefix of the optional annotation sections is exercised as well.
  for (CorpusCircuit which :
       {CorpusCircuit::Apte, CorpusCircuit::Xerox, CorpusCircuit::Ami33}) {
    std::string_view text = corpusText(which);
    for (std::size_t len = 0; len < text.size(); ++len) {
      expectCleanParse(text.substr(0, len),
                       (std::string(corpusName(which)) + " truncated to " +
                        std::to_string(len))
                           .c_str());
    }
  }
}

TEST(ParserFuzz, ByteCorruptionsFailCleanly) {
  // Hp carries Power and Shape annotations — flips land in those lines too.
  std::string_view base = corpusText(CorpusCircuit::Hp);
  Rng rng(211);
  for (int round = 0; round < 400; ++round) {
    std::string text(base);
    std::size_t flips = 1 + rng.index(4);
    for (std::size_t f = 0; f < flips; ++f) {
      std::size_t at = rng.index(text.size());
      text[at] = static_cast<char>(rng.uniformInt(0, 255));
    }
    expectCleanParse(text, ("corruption round " + std::to_string(round)).c_str());
  }
}

TEST(ParserFuzz, LineShufflesFailCleanly) {
  std::string_view base = corpusText(CorpusCircuit::Ami49);
  std::vector<std::string> lines;
  std::string current;
  for (char c : base) {
    if (c == '\n') {
      lines.push_back(current);
      current.clear();
    } else {
      current += c;
    }
  }
  Rng rng(223);
  for (int round = 0; round < 120; ++round) {
    std::vector<std::string> shuffled = lines;
    // A few random transpositions keep most structure intact — the nastiest
    // inputs are *almost* valid files.
    for (int swaps = 0; swaps < 6; ++swaps) {
      std::swap(shuffled[rng.index(shuffled.size())],
                shuffled[rng.index(shuffled.size())]);
    }
    std::string text;
    for (const std::string& line : shuffled) text += line + "\n";
    expectCleanParse(text, ("shuffle round " + std::to_string(round)).c_str());
  }
}

TEST(ParserFuzz, HostileCountsAndTokensFailCleanly) {
  const char* hostile[] = {
      "ALSBENCH 1\nCircuit c\nNumBlocks 99999999999999999999\n",
      "ALSBENCH 1\nCircuit c\nNumBlocks 1000001\n",
      "ALSBENCH 1\nCircuit c\nNumBlocks 1\nBlock a 999999999999 5\n",
      "ALSBENCH 1\nCircuit c\nNumBlocks 1\nBlock a -4 5\n",
      "ALSBENCH 1\nCircuit c\nNumBlocks 1\nSoftBlock s 1e308 0.5 2\n",
      "ALSBENCH 1\nCircuit c\nNumBlocks 1\nSoftBlock s nan 0.5 2\n",
      "ALSBENCH 1\nCircuit c\nNumBlocks 1\nSoftBlock s 100 inf 2\n",
      "ALSBENCH 1\nCircuit c\nNumBlocks 1\nBlock a 1 1\nNumNets 1\n"
      "Net n 4294967295 a\n",
      "ALSBENCH 1\nCircuit c\nNumBlocks 1\nBlock a 1 1\nNumHierNodes 7\n"
      "Leaf a a\nGroup g none - 1 0\nGroup h none - 1 1\nGroup i none - 1 2\n"
      "Group j none - 1 3\nGroup k none - 1 4\nGroup l none - 1 5\nRoot 99\n",
      "ALSBENCH 1\nCircuit c\nNumBlocks 1\nBlock a 1 1\nNumHierNodes 2\n"
      "Leaf a a\nGroup g none - 2 0 0\nRoot 1\n",
      "ALSBENCH 1\nCircuit c\nNumBlocks 1\nBlock a 1 1\nNumHierNodes 2\n"
      "Leaf x a\nLeaf y a\nRoot 0\n",
      "ALSBENCH 1\nCircuit c\nNumBlocks 1\nBlock a 1 1\n"
      "NumPower 99999999999999999999\n",
      "ALSBENCH 1\nCircuit c\nNumBlocks 1\nBlock a 1 1\nNumPower 2\n"
      "Power a 0.5\n",
      "ALSBENCH 1\nCircuit c\nNumBlocks 1\nBlock a 1 1\nNumPower 1\n"
      "Power a 1e309\n",
      "ALSBENCH 1\nCircuit c\nNumBlocks 1\nBlock a 1 1\n"
      "NumShapes 99999999999999999999\n",
      "ALSBENCH 1\nCircuit c\nNumBlocks 1\nBlock a 1 1\nNumShapes 1\n"
      "Shape a 4294967295 1 1\n",
      "ALSBENCH 1\nCircuit c\nNumBlocks 1\nBlock a 1 1\nNumShapes 1\n"
      "Shape a 2 1 1\n",
      "ALSBENCH 1\nCircuit c\nNumBlocks 1\nBlock a 1 1\nNumShapes 1\n"
      "Shape a 1 999999999999 1\n",
  };
  for (const char* text : hostile) {
    ParseResult r = parseBenchmark(text);
    EXPECT_FALSE(r.ok()) << text;
    EXPECT_FALSE(r.error.empty()) << text;
  }
}

TEST(ParserFuzz, RandomTokenSoupFailsCleanly) {
  const char* words[] = {"ALSBENCH", "Circuit",  "NumBlocks", "Block",
                         "SoftBlock", "NumNets",  "Net",       "NumSymGroups",
                         "SymGroup",  "SymPair",  "SymSelf",   "NumHierNodes",
                         "Leaf",      "Group",    "Root",      "1",
                         "0",         "-3",       "4e9",       "a",
                         "b",         "norotate", "none",      "symmetry",
                         "#",         "common-centroid",       "NumPower",
                         "Power",     "NumShapes", "Shape",    "0.5"};
  Rng rng(227);
  for (int round = 0; round < 300; ++round) {
    std::string text;
    std::size_t tokens = rng.index(120);
    for (std::size_t t = 0; t < tokens; ++t) {
      text += words[rng.index(std::size(words))];
      text += rng.uniform() < 0.25 ? '\n' : ' ';
    }
    expectCleanParse(text, ("soup round " + std::to_string(round)).c_str());
  }
}

// --- ALSRESULT / serve wire ----------------------------------------------
//
// The serve stack's integrity claim is that a damaged ALSRESULT payload —
// truncated, bit-flipped, hostile-counted or outright soup — fails
// parseResultText with a message, never crashes, never over-allocates and
// never parses into a silently wrong result.  The checksum trailer makes
// the first two properties total: ANY change to the sealed bytes must be
// rejected.

/// A random but structurally valid result to serialize.
EngineResult randomResult(Rng& rng) {
  EngineResult r;
  r.cost = rng.uniform() * 1e6;
  r.area = rng.uniformInt(1, 1 << 20);
  r.hpwl = rng.uniformInt(0, 1 << 20);
  r.movesTried = rng.index(100000);
  r.sweeps = rng.index(4096);
  r.restartsRun = 1 + rng.index(8);
  r.bestRestart = rng.index(r.restartsRun);
  r.bestSeed = rng.index(1u << 30);
  const std::size_t n = 1 + rng.index(40);
  Placement p(n);
  for (std::size_t i = 0; i < n; ++i) {
    p[i] = {rng.uniformInt(0, 500), rng.uniformInt(0, 500),
            rng.uniformInt(1, 60), rng.uniformInt(1, 60)};
  }
  r.placement = p;
  return r;
}

TEST(ResultTextFuzz, EveryTruncationFailsCleanly) {
  Rng rng(307);
  for (int round = 0; round < 6; ++round) {
    std::string wire;
    writeResultText(round % 2 == 0 ? EngineBackend::SeqPair
                                   : EngineBackend::HBStar,
                    randomResult(rng), wire);
    EngineBackend backend = EngineBackend::FlatBStar;
    EngineResult parsed;
    ASSERT_EQ(parseResultText(wire, backend, parsed), "");
    for (std::size_t len = 0; len < wire.size(); ++len) {
      EXPECT_NE(parseResultText(std::string_view(wire).substr(0, len),
                                backend, parsed),
                "")
          << "round " << round << " truncated to " << len;
    }
  }
}

TEST(ResultTextFuzz, ByteCorruptionsAlwaysFail) {
  // Unlike the benchmark parser (where a flip can land in a comment), the
  // checksum seal covers every byte: any actual change must be rejected.
  Rng rng(311);
  std::string base;
  writeResultText(EngineBackend::SeqPair, randomResult(rng), base);
  for (int round = 0; round < 500; ++round) {
    std::string text = base;
    const std::size_t flips = 1 + rng.index(4);
    for (std::size_t f = 0; f < flips; ++f) {
      const std::size_t at = rng.index(text.size());
      text[at] = static_cast<char>(text[at] ^ (1 + rng.index(255)));
    }
    EngineBackend backend = EngineBackend::FlatBStar;
    EngineResult parsed;
    EXPECT_NE(parseResultText(text, backend, parsed), "")
        << "corruption round " << round;
  }
}

TEST(ResultTextFuzz, HostileCountsAndHeadersFailCleanly) {
  const char* hostile[] = {
      "",
      "ALSRESULT 2\n",
      "ALSRESULT 1\nBackend seqpair\n",
      // Astronomically large NumRects must be rejected before any
      // allocation is sized from it.
      "ALSRESULT 1\nBackend seqpair\nCost 1\nArea 1\nHpwl 1\nMoves 1\n"
      "Accepted 1\nSweeps 1\nRestarts 1\nBestRestart 0\nBestSeed 1\n"
      "NumRects 99999999999999999999\n",
      "ALSRESULT 1\nBackend seqpair\nCost 1\nArea 1\nHpwl 1\nMoves 1\n"
      "Accepted 1\nSweeps 1\nRestarts 1\nBestRestart 0\nBestSeed 1\n"
      "NumRects 1000000\n",
      "ALSRESULT 1\nBackend seqpair\nCost nan\nArea 1\nHpwl 1\nMoves 1\n"
      "Accepted 1\nSweeps 1\nRestarts 1\nBestRestart 0\nBestSeed 1\n"
      "NumRects 0\nEND\n",
      // Structurally complete but unsealed / badly sealed payloads.
      "ALSRESULT 1\nBackend seqpair\nCost 1\nArea 1\nHpwl 1\nMoves 1\n"
      "Accepted 1\nSweeps 1\nRestarts 1\nBestRestart 0\nBestSeed 1\n"
      "NumRects 0\nEND\n",
      "ALSRESULT 1\nBackend seqpair\nCost 1\nArea 1\nHpwl 1\nMoves 1\n"
      "Accepted 1\nSweeps 1\nRestarts 1\nBestRestart 0\nBestSeed 1\n"
      "NumRects 0\nEND\n"
      "Checksum zzzzzzzzzzzzzzzz\n",
      "ALSRESULT 1\nBackend seqpair\nCost 1\nArea 1\nHpwl 1\nMoves 1\n"
      "Accepted 1\nSweeps 1\nRestarts 1\nBestRestart 0\nBestSeed 1\n"
      "NumRects 0\nEND\n"
      "Checksum 0123456789abcdef\n",
      "ALSRESULT 1\nBackend seqpair\nCost 1\nArea 1\nHpwl 1\nMoves 1\n"
      "Accepted 1\nSweeps 1\nRestarts 1\nBestRestart 0\nBestSeed 1\n"
      "NumRects 1\n"
      "Rect 0 0 -5 -5\nEND\nChecksum 0123456789abcdef\n",
  };
  for (const char* text : hostile) {
    EngineBackend backend = EngineBackend::SeqPair;
    EngineResult parsed;
    EXPECT_NE(parseResultText(text, backend, parsed), "") << text;
  }
}

TEST(ResultTextFuzz, RandomTokenSoupFailsCleanly) {
  // Soup cannot carry a matching checksum, so every round must fail — with
  // a message, not a crash or runaway allocation.
  const char* words[] = {"ALSRESULT", "Backend", "seqpair",  "flat-bstar",
                         "Cost",      "Area",    "Hpwl",     "Moves",
                         "Accepted",  "Sweeps",  "Restarts", "BestRestart",
                         "BestSeed",  "NumRects", "Rect",    "END",
                         "Checksum",  "1",       "0",        "-7",
                         "1e300",     "0123456789abcdef",    "deadbeef",
                         "nan"};
  Rng rng(313);
  for (int round = 0; round < 300; ++round) {
    std::string text;
    const std::size_t tokens = rng.index(80);
    for (std::size_t t = 0; t < tokens; ++t) {
      text += words[rng.index(std::size(words))];
      text += rng.uniform() < 0.3 ? '\n' : ' ';
    }
    EngineBackend backend = EngineBackend::SeqPair;
    EngineResult parsed;
    EXPECT_NE(parseResultText(text, backend, parsed), "")
        << "soup round " << round;
  }
}

TEST(ServeWireFuzz, JobOptionSoupFailsWithMessagesAndKeysStayDeterministic) {
  // Every knob of the table, plus keys the parser must reject.
  std::vector<std::string_view> keys;
  for (const Knob& knob : kKnobs) keys.push_back(knob.wire);
  for (std::string_view extra : {"bogus", "", "deadline-ms"}) {
    keys.push_back(extra);
  }
  const char* values[] = {"1",   "0",    "-3",  "0.5", "4e9", "nan",
                          "inf", "banana", "",  "1e-300", "99999999999999999999"};
  Rng rng(317);
  const std::string_view circuit = corpusText(CorpusCircuit::Apte);
  for (int round = 0; round < 400; ++round) {
    EngineOptions options;
    for (std::size_t i = 0, n = rng.index(12); i < n; ++i) {
      // Each pair either applies or is rejected with a message; the point
      // here is that no combination crashes or corrupts the options struct.
      // (The daemon-layer deadline keys are NOT engine options and must be
      // rejected here — the daemon intercepts them before this call.)
      applyJobOption(options, keys[rng.index(keys.size())],
                     values[rng.index(std::size(values))]);
    }
    // Whatever survived must canonicalize deterministically.
    std::string scratch;
    const CacheKey a =
        makeCacheKey(circuit, EngineBackend::SeqPair, options, scratch);
    const CacheKey b =
        makeCacheKey(circuit, EngineBackend::SeqPair, options, scratch);
    EXPECT_EQ(a, b) << "round " << round;
  }
}

// JOB blocks through the reader the daemon runs (`readJob` over a
// WireReader).  Blocks the writer builds never break framing, whatever
// their options say, and an accepted one carries its circuit; line soup
// with LF or CRLF endings ends Ok, Error or Broken without crashing, and
// of the first two only an Error carries a message.
TEST(ServeWireFuzz, JobBlockSoupFramesOrFailsThroughTheDaemonReader) {
  std::vector<std::string_view> keys;
  for (const Knob& knob : kKnobs) keys.push_back(knob.wire);
  for (std::string_view extra : {"deadline-ms", "deadline-sweeps", "bogus"}) {
    keys.push_back(extra);
  }
  const char* values[] = {"1", "0", "-3", "0.5", "nan", "banana", "", "64"};
  const char* backends[] = {"seqpair", "flat-bstar", "slicing", "hbstar", "b*"};
  const std::string_view circuit = corpusText(CorpusCircuit::Apte);
  auto readOne = [](WireReader& reader, std::string& error, JobRequest& job) {
    std::string line, tag;
    EXPECT_TRUE(reader.readLine(line));
    std::string_view rest = line;
    EXPECT_EQ(nextToken(rest), "JOB");
    const JobStatus status = readJob(reader, rest, tag, job, error);
    if (status != JobStatus::Broken) {
      EXPECT_EQ(error.empty(), status == JobStatus::Ok);
    }
    return status;
  };
  Rng rng(353);
  for (int round = 0; round < 300; ++round) {
    std::vector<WireOpt> opts;
    for (std::size_t i = 0, n = rng.index(6); i < n; ++i) {
      opts.push_back({keys[rng.index(keys.size())],
                      values[rng.index(std::size(values))]});
    }
    std::string wire;
    std::optional<std::string_view> carried;
    if (rng.index(4) != 0) carried = circuit;
    appendJobBlock(wire, "t" + std::to_string(round),
                   backends[rng.index(std::size(backends))], opts, carried);
    WireReader written(wire + wire);  // two blocks back to back
    for (int block = 0; block < 2; ++block) {
      std::string error;
      JobRequest job;
      const JobStatus status = readOne(written, error, job);
      EXPECT_NE(status, JobStatus::Broken) << "round " << round;
      if (status == JobStatus::Ok) {
        EXPECT_EQ(job.circuitText, circuit);
      }
    }

    const char* lines[] = {"OPT sweeps 4", "OPT deadline-ms 7", "OPT", "END",
                           "CIRCUIT 3", "CIRCUIT 99999999999", "CIRCUIT x",
                           "", "abc", "JOB a b", "\r", "OPT seed"};
    std::string soup = "JOB s seqpair\n";
    for (std::size_t i = 0, n = rng.index(8); i < n; ++i) {
      soup += lines[rng.index(std::size(lines))];
      soup += rng.index(2) == 0 ? "\n" : "\r\n";
    }
    std::string error;
    JobRequest job;
    WireReader souped(soup);
    readOne(souped, error, job);
  }
}

TEST(ServeWireFuzz, CacheKeyHexRoundTripsAndRejectsGarbage) {
  Rng rng(331);
  for (int round = 0; round < 200; ++round) {
    const CacheKey key{rng.index(~0ull), rng.index(~0ull), rng.index(~0ull)};
    CacheKey parsed;
    ASSERT_TRUE(parsed.parseHex(key.hex())) << round;
    EXPECT_EQ(parsed, key);
  }
  const char alphabet[] = "0123456789abcdefABCDEFxyz!- \n";
  for (int round = 0; round < 400; ++round) {
    const std::size_t len = rng.index(64);
    std::string text;
    for (std::size_t i = 0; i < len; ++i) {
      text += alphabet[rng.index(std::size(alphabet) - 1)];
    }
    CacheKey parsed;
    if (parsed.parseHex(text)) {
      // Anything accepted must be a genuine spelling: re-serializing it
      // must reproduce the input exactly (48 lowercase hex chars).
      EXPECT_EQ(parsed.hex(), text) << "round " << round;
    }
  }
}

TEST(ServeWireFuzz, BackendNamesRoundTripAndSoupIsRejected) {
  for (EngineBackend b : {EngineBackend::FlatBStar, EngineBackend::SeqPair,
                          EngineBackend::Slicing, EngineBackend::HBStar}) {
    EngineBackend parsed;
    ASSERT_TRUE(parseBackendName(backendName(b), parsed));
    EXPECT_EQ(parsed, b);
  }
  EngineBackend parsed = EngineBackend::SeqPair;
  for (const char* bad : {"", "seqpair ", " seqpair", "SEQPAIR", "b*",
                          "flatbstar", "hbstar\n", "0"}) {
    EXPECT_FALSE(parseBackendName(bad, parsed)) << '"' << bad << '"';
  }
}

}  // namespace
}  // namespace als
