// Benchmark I/O tests: parsing, soft-block resolution, error reporting,
// canonical hierarchy synthesis, the embedded corpus, and the write ->
// parse round trip — which must reconstruct circuits *structurally
// identically* (including hierarchy node ids) and therefore place
// bit-identically on every backend.
#include "io/benchmark_format.h"

#include <gtest/gtest.h>

#include "engine/placement_engine.h"
#include "io/corpus.h"
#include "netlist/generators.h"
#include "runtime/portfolio.h"
#include "test_util.h"

namespace als {
namespace {

constexpr std::string_view kTiny = R"(
# a tiny well-formed file
ALSBENCH 1
Circuit tiny example
NumBlocks 3
Block a 10 20
Block b 10 20 norotate
SoftBlock s 400 0.5 2.0
NumNets 2
Net n1 2 a b
Net n2 3 a b s 2.5
NumSymGroups 1
SymGroup g 1 1
SymPair a b
SymSelf s
NumPower 1
Power a 0.5
NumShapes 1
Shape b 2 20 10 5 40
)";

TEST(BenchmarkParse, WellFormedFile) {
  ParseResult r = parseBenchmark(kTiny);
  ASSERT_TRUE(r.ok()) << r.error;
  const Circuit& c = r.circuit;
  EXPECT_EQ(c.name(), "tiny example");
  ASSERT_EQ(c.moduleCount(), 3u);
  EXPECT_EQ(c.module(0).name, "a");
  EXPECT_EQ(c.module(0).w, 10);
  EXPECT_EQ(c.module(0).h, 20);
  EXPECT_TRUE(c.module(0).rotatable);
  EXPECT_FALSE(c.module(1).rotatable);
  // Soft block: aspect range [0.5, 2] contains 1, so the resolution is the
  // 20x20 square covering area 400.
  EXPECT_EQ(c.module(2).w, 20);
  EXPECT_EQ(c.module(2).h, 20);
  ASSERT_EQ(c.nets().size(), 2u);
  EXPECT_EQ(c.nets()[0].pins, (std::vector<ModuleId>{0, 1}));
  EXPECT_DOUBLE_EQ(c.nets()[0].weight, 1.0);
  EXPECT_DOUBLE_EQ(c.nets()[1].weight, 2.5);
  ASSERT_EQ(c.symmetryGroups().size(), 1u);
  EXPECT_EQ(c.symmetryGroup(0).pairs.size(), 1u);
  EXPECT_EQ(c.symmetryGroup(0).selfs, (std::vector<ModuleId>{2}));
  // Power and Shape sections: `a` radiates, `b` carries two alternatives
  // behind its declared footprint (shapes[0] is ALWAYS the footprint).
  EXPECT_DOUBLE_EQ(c.module(0).powerW, 0.5);
  EXPECT_DOUBLE_EQ(c.module(1).powerW, 0.0);
  ASSERT_EQ(c.module(1).shapes.size(), 3u);
  EXPECT_EQ(c.module(1).shapes[0], (ModuleShape{10, 20}));
  EXPECT_EQ(c.module(1).shapes[1], (ModuleShape{20, 10}));
  EXPECT_EQ(c.module(1).shapes[2], (ModuleShape{5, 40}));
  // The soft block had no explicit Shape line, so the parser derived a
  // discretized curve from its aspect range, anchored at the footprint.
  ASSERT_GE(c.module(2).shapes.size(), 2u);
  EXPECT_EQ(c.module(2).shapes[0], (ModuleShape{20, 20}));
  // The parser synthesized a canonical hierarchy.
  EXPECT_FALSE(c.hierarchy().empty());
}

TEST(BenchmarkParse, ExplicitShapeWinsOverSoftAutoCurve) {
  ParseResult r = parseBenchmark(
      "ALSBENCH 1\nCircuit c\nNumBlocks 1\nSoftBlock s 400 0.5 2.0\n"
      "NumShapes 1\nShape s 1 10 40\n");
  ASSERT_TRUE(r.ok()) << r.error;
  // The explicit curve replaces the auto-derived one entirely.
  ASSERT_EQ(r.circuit.module(0).shapes.size(), 2u);
  EXPECT_EQ(r.circuit.module(0).shapes[0], (ModuleShape{20, 20}));
  EXPECT_EQ(r.circuit.module(0).shapes[1], (ModuleShape{10, 40}));
}

TEST(BenchmarkParse, AbsentSectionsLeaveCanonicalDefaults) {
  ParseResult r = parseBenchmark(
      "ALSBENCH 1\nCircuit c\nNumBlocks 2\nBlock a 3 4\nBlock b 5 6\n");
  ASSERT_TRUE(r.ok()) << r.error;
  for (ModuleId m = 0; m < 2; ++m) {
    EXPECT_DOUBLE_EQ(r.circuit.module(m).powerW, 0.0);
    EXPECT_TRUE(r.circuit.module(m).shapes.empty());
  }
}

TEST(BenchmarkParse, SoftBlockAspectClamping) {
  // Aspect range excludes 1: the closest in-range aspect (1.5) wins.
  // w = round(sqrt(2e9 * 1.5)) = 54772, h = ceil(2e9 / 54772) = 36516.
  ParseResult r = parseBenchmark(
      "ALSBENCH 1\nCircuit c\nNumBlocks 1\nSoftBlock s 2000000000 1.5 3.0\n");
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.circuit.module(0).w, 54772);
  EXPECT_EQ(r.circuit.module(0).h, 36516);
  EXPECT_GE(r.circuit.module(0).w * r.circuit.module(0).h, 2000000000);
}

TEST(BenchmarkParse, ErrorsCarryLineNumbers) {
  struct Case {
    const char* text;
    const char* needle;
  };
  const Case cases[] = {
      {"", "unexpected end"},
      {"YALBENCH 1\n", "expected 'ALSBENCH'"},
      {"ALSBENCH 2\nCircuit c\nNumBlocks 1\nBlock a 1 1\n", "version"},
      {"ALSBENCH 1\nCircuit\nNumBlocks 1\nBlock a 1 1\n", "circuit name"},
      {"ALSBENCH 1\nCircuit c\nNumBlocks 0\n", "at least 1"},
      {"ALSBENCH 1\nCircuit c\nNumBlocks 2\nBlock a 1 1\n", "unexpected end"},
      {"ALSBENCH 1\nCircuit c\nNumBlocks 1\nBlock a 0 5\n", "bad dimension"},
      {"ALSBENCH 1\nCircuit c\nNumBlocks 1\nBlock a 5 x\n", "bad dimension"},
      {"ALSBENCH 1\nCircuit c\nNumBlocks 2\nBlock a 1 1\nBlock a 2 2\n",
       "duplicate block"},
      {"ALSBENCH 1\nCircuit c\nNumBlocks 1\nBlock a 1 1\nNumNets 1\n"
       "Net n 2 a zz\n", "unknown block"},
      {"ALSBENCH 1\nCircuit c\nNumBlocks 1\nBlock a 1 1\nNumNets 1\n"
       "Net n 3 a a\n", "pin list"},
      {"ALSBENCH 1\nCircuit c\nNumBlocks 1\nBlock a 1 1\nNumSymGroups 1\n"
       "SymGroup g 1 0\nSymPair a a\n", "with itself"},
      {"ALSBENCH 1\nCircuit c\nNumBlocks 1\nBlock a 1 1\njunk here\n",
       "trailing content"},
      {"ALSBENCH 1\nCircuit c\nNumBlocks 1\nSoftBlock s 100 3.0 1.5\n",
       "aspect range"},
      {"ALSBENCH 1\nCircuit c\nNumBlocks 2\nBlock a 1 1\nBlock b 2 2\n"
       "NumSymGroups 1\nSymGroup g 1 0\nSymPair a b\n", "validation"},
      {"ALSBENCH 1\nCircuit c\nNumBlocks 1\nBlock a 1 1\nNumPower 1\n"
       "Power zz 0.5\n", "unknown block"},
      {"ALSBENCH 1\nCircuit c\nNumBlocks 1\nBlock a 1 1\nNumPower 1\n"
       "Power a 0\n", "power must be positive"},
      {"ALSBENCH 1\nCircuit c\nNumBlocks 1\nBlock a 1 1\nNumPower 1\n"
       "Power a nan\n", "bad number"},
      {"ALSBENCH 1\nCircuit c\nNumBlocks 1\nBlock a 1 1\nNumPower 2\n"
       "Power a 0.5\nPower a 0.25\n", "duplicate Power"},
      {"ALSBENCH 1\nCircuit c\nNumBlocks 1\nBlock a 1 1\nNumPower 1\n"
       "Power a 0.5 extra\n", "Power needs"},
      {"ALSBENCH 1\nCircuit c\nNumBlocks 1\nBlock a 1 1\nNumShapes 1\n"
       "Shape zz 1 2 2\n", "unknown block"},
      {"ALSBENCH 1\nCircuit c\nNumBlocks 1\nBlock a 1 1\nNumShapes 1\n"
       "Shape a 1 0 5\n", "bad dimension"},
      {"ALSBENCH 1\nCircuit c\nNumBlocks 1\nBlock a 1 1\nNumShapes 1\n"
       "Shape a 2 2 2\n", "declared count"},
      {"ALSBENCH 1\nCircuit c\nNumBlocks 1\nBlock a 1 1\nNumShapes 1\n"
       "Shape a 0\n", "bad shape count"},
      {"ALSBENCH 1\nCircuit c\nNumBlocks 1\nBlock a 1 1\nNumShapes 2\n"
       "Shape a 1 2 2\nShape a 1 3 3\n", "duplicate Shape"},
  };
  for (const Case& test : cases) {
    ParseResult r = parseBenchmark(test.text);
    EXPECT_FALSE(r.ok()) << test.text;
    EXPECT_NE(r.error.find(test.needle), std::string::npos)
        << "error '" << r.error << "' should mention '" << test.needle << "'";
  }
}

// The numeric envelope: the packing extent (sum over blocks of each
// block's largest side, any orientation or shape alternative) may not pass
// 759250124 DBU, the largest E with 16 * E^2 <= INT64_MAX.  Ten 1e9 x 1e9
// blocks used to parse and then place with a negative int64 area.
TEST(BenchmarkParse, NumericEnvelopeRejectsOverflowingCircuits) {
  constexpr Coord kMaxExtent = 759'250'124;
  auto blocks = [](const std::vector<std::pair<Coord, Coord>>& dims,
                   const std::string& tail = "") {
    std::string text = "ALSBENCH 1\nCircuit env\nNumBlocks " +
                       std::to_string(dims.size()) + "\n";
    for (std::size_t i = 0; i < dims.size(); ++i) {
      text += "Block b" + std::to_string(i) + " " +
              std::to_string(dims[i].first) + " " +
              std::to_string(dims[i].second) + "\n";
    }
    return text + tail;
  };

  std::vector<std::pair<Coord, Coord>> ten(10, {1'000'000'000, 1'000'000'000});
  ParseResult repro = parseBenchmark(blocks(ten));
  ASSERT_FALSE(repro.ok());
  EXPECT_NE(repro.error.find("line 4: block 'b0'"), std::string::npos)
      << repro.error;
  EXPECT_NE(repro.error.find("packing extent"), std::string::npos);

  // At the envelope, and one DBU past it on the block that crosses it.  The
  // larger side counts whatever the orientation.
  ParseResult at = parseBenchmark(blocks({{kMaxExtent - 1000, 2}, {2, 1000}}));
  ASSERT_TRUE(at.ok()) << at.error;
  ParseResult past =
      parseBenchmark(blocks({{kMaxExtent - 1000, 2}, {2, 1001}}));
  ASSERT_FALSE(past.ok());
  EXPECT_NE(past.error.find("line 5: block 'b1'"), std::string::npos)
      << past.error;

  // A shape alternative counts too; the error names the block's own line.
  EXPECT_TRUE(parseBenchmark(blocks({{1000, 1000}},
                                    "NumShapes 1\nShape b0 1 " +
                                        std::to_string(kMaxExtent) + " 2\n"))
                  .ok());
  ParseResult shaped = parseBenchmark(
      blocks({{1000, 1000}}, "NumShapes 1\nShape b0 1 2 " +
                                 std::to_string(kMaxExtent + 1) + "\n"));
  ASSERT_FALSE(shaped.ok());
  EXPECT_NE(shaped.error.find("line 4: block 'b0'"), std::string::npos)
      << shaped.error;

  // A circuit at the envelope places with exact aggregates on every
  // backend: the area is a real bounding box of the blocks.
  EngineOptions opt;
  opt.maxSweeps = 2;
  for (EngineBackend backend : allBackends()) {
    EngineResult r = PortfolioRunner().run(at.circuit, backend, opt);
    EXPECT_GE(r.area, at.circuit.totalModuleArea()) << backendName(backend);
    EXPECT_EQ(r.area, r.placement.boundingBox().area()) << backendName(backend);
    EXPECT_GE(r.hpwl, 0) << backendName(backend);
  }
}

TEST(BenchmarkParse, HierarchyInvariantsAreValidated) {
  // A symmetry node whose leaf children are not the group members must be
  // rejected at parse time (the HB*-tree placer asserts on it otherwise).
  const char* text =
      "ALSBENCH 1\nCircuit c\nNumBlocks 3\n"
      "Block a 1 1\nBlock b 1 1\nBlock x 2 2\n"
      "NumSymGroups 1\nSymGroup g 1 0\nSymPair a b\n"
      "NumHierNodes 5\nLeaf a a\nLeaf b b\nLeaf x x\n"
      "Group s symmetry g 3 0 1 2\n"  // x is not a member of g
      "Group top none - 1 3\nRoot 4\n";
  ParseResult r = parseBenchmark(text);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("members of group"), std::string::npos) << r.error;

  const char* orphan =
      "ALSBENCH 1\nCircuit c\nNumBlocks 2\nBlock a 1 1\nBlock b 1 1\n"
      "NumHierNodes 3\nLeaf a a\nLeaf b b\nGroup top none - 1 0\nRoot 2\n";
  r = parseBenchmark(orphan);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("not reachable"), std::string::npos) << r.error;
}

TEST(CanonicalHierarchy, ClustersFreeBlocksAndWrapsSymGroups) {
  Circuit c = loadCorpusCircuit(CorpusCircuit::Apte);
  const HierTree& h = c.hierarchy();
  // 9 leaves + 1 symmetry node (4 members) + 1 cluster of 4 free blocks
  // (the 9th free block stays a direct root child) + the root.
  ASSERT_EQ(h.nodeCount(), 12u);
  for (HierNodeId id = 0; id < 9; ++id) {
    ASSERT_TRUE(h.node(id).isLeaf());
    EXPECT_EQ(*h.node(id).module, id);
  }
  const HierNode& sym = h.node(9);
  EXPECT_EQ(sym.constraint, GroupConstraint::Symmetry);
  EXPECT_EQ(sym.symGroup, std::optional<std::size_t>{0});
  EXPECT_EQ(sym.children, (std::vector<HierNodeId>{0, 1, 2, 3}));
  const HierNode& cluster = h.node(10);
  EXPECT_EQ(cluster.constraint, GroupConstraint::None);
  EXPECT_EQ(cluster.children, (std::vector<HierNodeId>{4, 5, 6, 7}));
  EXPECT_EQ(h.root(), 11u);
  EXPECT_EQ(h.node(11).children, (std::vector<HierNodeId>{9, 10, 8}));
  // Every basic set stays small enough for exhaustive enumeration.
  for (HierNodeId id = 0; id < h.nodeCount(); ++id) {
    if (!h.node(id).isLeaf() && h.isBasicSet(id)) {
      EXPECT_LE(h.node(id).children.size(), 6u);
    }
  }
}

TEST(Corpus, AllCircuitsParseAndValidate) {
  const std::size_t expectedBlocks[] = {9, 10, 11, 33, 49};
  std::size_t i = 0;
  for (CorpusCircuit which : allCorpusCircuits()) {
    Circuit c = loadCorpusCircuit(which);
    EXPECT_EQ(c.name(), corpusName(which));
    EXPECT_EQ(c.moduleCount(), expectedBlocks[i++]);
    EXPECT_FALSE(c.nets().empty());
    EXPECT_FALSE(c.hierarchy().empty());
    std::string why;
    EXPECT_TRUE(c.validate(&why)) << corpusName(which) << ": " << why;
  }
}

TEST(Corpus, EveryRealizationReadsBackToItsFootprint) {
  // The reseed contract of Module::choiceOf: for every legal choice of
  // every module (each curve point, turned when rotatable), the choice
  // read back from its footprint realizes that same footprint.
  std::vector<CorpusCircuit> corpus = allCorpusCircuits();
  for (CorpusCircuit which : largeCorpusCircuits()) corpus.push_back(which);
  std::size_t curvePoints = 0;
  for (CorpusCircuit which : corpus) {
    SCOPED_TRACE(corpusName(which));
    const Circuit c = loadCorpusCircuit(which);
    for (const Module& mod : c.modules()) {
      const std::size_t shapes = std::max<std::size_t>(1, mod.shapes.size());
      curvePoints += shapes - 1;
      for (std::size_t shape = 0; shape < shapes; ++shape) {
        for (bool turned : {false, true}) {
          if (turned && !mod.rotatable) continue;
          const ModuleShape f = mod.footprint(shape, turned);
          const ModuleChoice back = mod.choiceOf(Rect{0, 0, f.w, f.h});
          EXPECT_EQ(mod.footprint(back.shape, back.turned), f)
              << mod.name << " shape " << shape << " turned " << turned;
        }
      }
    }
  }
  EXPECT_GT(curvePoints, 0u);  // n100's soft blocks carry curves
}

TEST(Corpus, GsrcCircuitsParseValidateAndScale) {
  const std::size_t expectedBlocks[] = {100, 200, 300};
  std::size_t i = 0;
  for (CorpusCircuit which : largeCorpusCircuits()) {
    SCOPED_TRACE(corpusName(which));
    Circuit c = loadCorpusCircuit(which);
    EXPECT_EQ(c.name(), corpusName(which));
    EXPECT_EQ(c.moduleCount(), expectedBlocks[i++]);
    std::string why;
    EXPECT_TRUE(c.validate(&why)) << why;
    EXPECT_FALSE(c.hierarchy().empty());
    // The GSRC-scale class carries the annotations the scaling benches
    // exercise: soft blocks with shape curves, symmetry groups, and about
    // one net per block.
    std::size_t soft = 0;
    for (ModuleId m = 0; m < c.moduleCount(); ++m) {
      if (!c.module(m).shapes.empty()) ++soft;
      // Every footprint sits on the micrometre grid (even DBU — the
      // symmetric constructors center pairs at half-sums).
      EXPECT_EQ(c.module(m).w % 2, 0) << m;
      EXPECT_EQ(c.module(m).h % 2, 0) << m;
    }
    EXPECT_GE(soft, c.moduleCount() / 20);
    EXPECT_GE(c.symmetryGroups().size(), 2u);
    EXPECT_GE(c.nets().size(), c.moduleCount() / 2);
    // The embedded text is a stable singleton: repeated lookups alias the
    // same generated buffer.
    EXPECT_EQ(corpusText(which).data(), corpusText(which).data());
    // Name lookup covers the large list too.
    CorpusCircuit back;
    ASSERT_TRUE(corpusByName(corpusName(which), &back));
    EXPECT_EQ(back, which);
  }
}

TEST(Corpus, GsrcGeneratorIsDeterministic) {
  Circuit a = makeGsrcLikeCircuit(100, 42);
  Circuit b = makeGsrcLikeCircuit(100, 42);
  WriteResult wa = writeBenchmark(a), wb = writeBenchmark(b);
  ASSERT_TRUE(wa.ok() && wb.ok());
  EXPECT_EQ(wa.text, wb.text);
  // A different seed must actually change the instance.
  Circuit other = makeGsrcLikeCircuit(100, 43);
  WriteResult wo = writeBenchmark(other);
  ASSERT_TRUE(wo.ok());
  EXPECT_NE(wa.text, wo.text);
}

// --- round trip ----------------------------------------------------------

void expectStructurallyIdentical(const Circuit& a, const Circuit& b) {
  EXPECT_EQ(a.name(), b.name());
  ASSERT_EQ(a.moduleCount(), b.moduleCount());
  for (ModuleId m = 0; m < a.moduleCount(); ++m) {
    EXPECT_EQ(a.module(m).name, b.module(m).name) << m;
    EXPECT_EQ(a.module(m).w, b.module(m).w) << m;
    EXPECT_EQ(a.module(m).h, b.module(m).h) << m;
    EXPECT_EQ(a.module(m).rotatable, b.module(m).rotatable) << m;
    EXPECT_EQ(a.module(m).powerW, b.module(m).powerW) << m;
    EXPECT_EQ(a.module(m).shapes, b.module(m).shapes) << m;
  }
  ASSERT_EQ(a.nets().size(), b.nets().size());
  for (std::size_t n = 0; n < a.nets().size(); ++n) {
    EXPECT_EQ(a.nets()[n].name, b.nets()[n].name) << n;
    EXPECT_EQ(a.nets()[n].pins, b.nets()[n].pins) << n;
    EXPECT_EQ(a.nets()[n].weight, b.nets()[n].weight) << n;
  }
  ASSERT_EQ(a.symmetryGroups().size(), b.symmetryGroups().size());
  for (std::size_t g = 0; g < a.symmetryGroups().size(); ++g) {
    const SymmetryGroup& ga = a.symmetryGroup(g);
    const SymmetryGroup& gb = b.symmetryGroup(g);
    EXPECT_EQ(ga.name, gb.name);
    ASSERT_EQ(ga.pairs.size(), gb.pairs.size());
    for (std::size_t p = 0; p < ga.pairs.size(); ++p) {
      EXPECT_EQ(ga.pairs[p].a, gb.pairs[p].a);
      EXPECT_EQ(ga.pairs[p].b, gb.pairs[p].b);
    }
    EXPECT_EQ(ga.selfs, gb.selfs);
  }
  ASSERT_EQ(a.hierarchy().nodeCount(), b.hierarchy().nodeCount());
  for (HierNodeId id = 0; id < a.hierarchy().nodeCount(); ++id) {
    const HierNode& na = a.hierarchy().node(id);
    const HierNode& nb = b.hierarchy().node(id);
    EXPECT_EQ(na.name, nb.name) << "node " << id;
    EXPECT_EQ(na.constraint, nb.constraint) << "node " << id;
    EXPECT_EQ(na.children, nb.children) << "node " << id;
    EXPECT_EQ(na.module, nb.module) << "node " << id;
    EXPECT_EQ(na.symGroup, nb.symGroup) << "node " << id;
  }
  EXPECT_EQ(a.hierarchy().root(), b.hierarchy().root());
}

/// Write -> parse -> structural identity -> bit-identical placement on
/// every backend (the determinism check of engine_test, applied across the
/// I/O boundary).
void expectRoundTrip(const Circuit& original) {
  WriteResult written = writeBenchmark(original);
  ASSERT_TRUE(written.ok()) << written.error;
  ParseResult parsed = parseBenchmark(written.text);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  expectStructurallyIdentical(original, parsed.circuit);

  // Serialization is idempotent: writing the parsed circuit reproduces the
  // byte-identical file.
  WriteResult again = writeBenchmark(parsed.circuit);
  ASSERT_TRUE(again.ok()) << again.error;
  EXPECT_EQ(written.text, again.text);

  EngineOptions opt;
  opt.maxSweeps = 100;
  opt.seed = 5;
  // Scenario knobs on: circuits without annotations behave identically (no
  // radiators -> zero term, no curves -> no shape RNG draws), annotated
  // ones must reproduce their annotations exactly to stay bit-identical.
  opt.thermalWeight = 1.0;
  opt.shapeMoveProb = 0.15;
  for (EngineBackend backend : allBackends()) {
    const std::string_view name = backendName(backend);
    const EngineOptions honoured = test_util::honouredBy(backend, opt);
    EngineResult a = PortfolioRunner().run(original, backend, honoured);
    EngineResult b = PortfolioRunner().run(parsed.circuit, backend, honoured);
    test_util::expectSameRun(a, b, name);
  }
}

TEST(BenchmarkRoundTrip, MillerOpAmp) { expectRoundTrip(makeMillerOpAmp()); }

TEST(BenchmarkRoundTrip, Fig2Design) { expectRoundTrip(makeFig2Design()); }

TEST(BenchmarkRoundTrip, TableIComparator) {
  expectRoundTrip(makeTableICircuit(TableICircuit::ComparatorV2));
}

TEST(BenchmarkRoundTrip, SyntheticCircuits) {
  for (std::uint64_t seed : {7u, 19u, 83u}) {
    SyntheticSpec spec;
    spec.name = "rt" + std::to_string(seed);
    spec.moduleCount = 18;
    spec.seed = seed;
    spec.symmetricFraction = 0.6;
    expectRoundTrip(makeSynthetic(spec));
  }
}

// Power and shape annotations survive the full round trip — including the
// bit-identical placement leg, which now runs with the thermal objective
// and shape moves enabled so the annotations are load-bearing.
TEST(BenchmarkRoundTrip, PowerAndShapeAnnotations) {
  Circuit c = makeMillerOpAmp();
  c.module(3).powerW = 0.7;
  c.module(7).powerW = 0.25;
  Module& soft = c.module(8);
  soft.shapes = {{soft.w, soft.h},
                 {soft.w / 2, soft.h * 2},
                 {soft.w * 2, (soft.h + 1) / 2}};
  std::string why;
  ASSERT_TRUE(c.validate(&why)) << why;
  expectRoundTrip(c);

  WriteResult written = writeBenchmark(c);
  ASSERT_TRUE(written.ok()) << written.error;
  EXPECT_NE(written.text.find("NumPower 2"), std::string::npos);
  EXPECT_NE(written.text.find("NumShapes 1"), std::string::npos);
}

// Tampered annotations must not serialize: a shapes[0] that disagrees with
// the declared footprint would silently change on reparse.
TEST(BenchmarkWrite, RejectsFootprintShapeMismatch) {
  Circuit c("c");
  c.addModule("a", 10, 20);
  c.module(0).shapes = {{11, 20}, {20, 10}};
  EXPECT_FALSE(writeBenchmark(c).ok());

  Circuit neg("c2");
  neg.addModule("a", 10, 20);
  neg.module(0).powerW = -1.0;
  EXPECT_FALSE(writeBenchmark(neg).ok());
}

TEST(BenchmarkRoundTrip, CorpusCircuits) {
  for (CorpusCircuit which : allCorpusCircuits()) {
    SCOPED_TRACE(corpusName(which));
    Circuit c = loadCorpusCircuit(which);
    WriteResult written = writeBenchmark(c);
    ASSERT_TRUE(written.ok()) << written.error;
    ParseResult parsed = parseBenchmark(written.text);
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    expectStructurallyIdentical(c, parsed.circuit);
  }
}

TEST(BenchmarkRoundTrip, GsrcCircuits) {
  for (CorpusCircuit which : largeCorpusCircuits()) {
    SCOPED_TRACE(corpusName(which));
    Circuit c = loadCorpusCircuit(which);
    WriteResult written = writeBenchmark(c);
    ASSERT_TRUE(written.ok()) << written.error;
    ParseResult parsed = parseBenchmark(written.text);
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    expectStructurallyIdentical(c, parsed.circuit);
    // The corpus text IS the serialization of the generated circuit, so a
    // second write reproduces it byte-for-byte.
    EXPECT_EQ(written.text, corpusText(which));
  }
}

TEST(BenchmarkRoundTrip, FileHelpers) {
  Circuit c = loadCorpusCircuit(CorpusCircuit::Apte);
  std::string path = ::testing::TempDir() + "als_io_test_apte.alsbench";
  std::string error;
  ASSERT_TRUE(writeBenchmarkFile(path, c, &error)) << error;
  ParseResult parsed = parseBenchmarkFile(path);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  expectStructurallyIdentical(c, parsed.circuit);
  EXPECT_FALSE(parseBenchmarkFile(path + ".does-not-exist").ok());
  std::remove(path.c_str());
}

TEST(BenchmarkWrite, RejectsUnserializableCircuits) {
  Circuit spaces("c");
  spaces.addModule("has space", 1, 1);
  EXPECT_FALSE(writeBenchmark(spaces).ok());

  Circuit dup("c");
  dup.addModule("a", 1, 1);
  dup.addModule("a", 2, 2);
  EXPECT_FALSE(writeBenchmark(dup).ok());

  EXPECT_FALSE(writeBenchmark(Circuit("empty")).ok());

  // Circuit names the parser would trim (or reject) must not serialize:
  // the round-trip guarantee would silently break.
  Circuit padded("padded ");
  padded.addModule("a", 1, 1);
  EXPECT_FALSE(writeBenchmark(padded).ok());
  Circuit blank("  ");
  blank.addModule("a", 1, 1);
  EXPECT_FALSE(writeBenchmark(blank).ok());
}

// The corpus symmetry circuits place with exact mirror symmetry on the
// structural backends — the invariant checker in its strictest setting.
TEST(CorpusPlacement, StructuralBackendsKeepSymmetryExactly) {
  Circuit c = loadCorpusCircuit(CorpusCircuit::Apte);
  EngineOptions opt;
  opt.maxSweeps = 80;
  opt.seed = 3;
  for (EngineBackend backend : {EngineBackend::SeqPair, EngineBackend::HBStar}) {
    EngineResult r = PortfolioRunner().run(c, backend, opt);
    test_util::expectPlacementInvariants(r.placement, c, {.symTolerance = 0},
                                         std::string(backendName(backend)));
  }
  for (EngineBackend backend :
       {EngineBackend::FlatBStar, EngineBackend::Slicing}) {
    EngineResult r = PortfolioRunner().run(c, backend, opt);
    test_util::expectPlacementInvariants(
        r.placement, c, {.symTolerance = test_util::kNoSymmetryCheck},
        std::string(backendName(backend)));
  }
}

}  // namespace
}  // namespace als
