// Experiment E11: constraint handling of the Section III machinery —
// ASF symmetry islands, common-centroid patterns, proximity connectivity,
// and the HB*-tree hierarchical placer on the Fig. 2 design.
#include <gtest/gtest.h>

#include "anneal/session.h"
#include "bstar/asf.h"
#include "bstar/common_centroid.h"
#include "bstar/flat_placer.h"
#include "bstar/hbstar.h"
#include "netlist/generators.h"
#include "seqpair/sym_placer.h"

namespace als {
namespace {

TEST(AsfIsland, PairOnlyIslandIsMirrored) {
  std::vector<AsfItem> items{AsfItem::pairModules(0, 1, 10, 6),
                             AsfItem::pairModules(2, 3, 4, 8)};
  AsfIsland island(items);
  AsfPacked packed = island.pack();
  Placement p(4);
  for (std::size_t r = 0; r < packed.macro.rects.size(); ++r) {
    p[packed.macro.owners[r]] = packed.macro.rects[r];
  }
  EXPECT_TRUE(p.isLegal());
  EXPECT_TRUE(mirroredAboutX2(p[0], p[1], packed.axis2x));
  EXPECT_TRUE(mirroredAboutX2(p[2], p[3], packed.axis2x));
}

TEST(AsfIsland, SelfSymmetricCellsStraddleAxis) {
  std::vector<AsfItem> items{AsfItem::selfModule(0, 12, 4),
                             AsfItem::selfModule(1, 8, 6),
                             AsfItem::pairModules(2, 3, 5, 5)};
  AsfIsland island(items);
  AsfPacked packed = island.pack();
  Placement p(4);
  for (std::size_t r = 0; r < packed.macro.rects.size(); ++r) {
    p[packed.macro.owners[r]] = packed.macro.rects[r];
  }
  EXPECT_TRUE(p.isLegal());
  EXPECT_TRUE(centeredOnX2(p[0], packed.axis2x));
  EXPECT_TRUE(centeredOnX2(p[1], packed.axis2x));
  EXPECT_TRUE(mirroredAboutX2(p[2], p[3], packed.axis2x));
}

TEST(AsfIsland, PerturbationsKeepSymmetry) {
  std::vector<AsfItem> items{
      AsfItem::pairModules(0, 1, 10, 4), AsfItem::pairModules(2, 3, 6, 8),
      AsfItem::selfModule(4, 8, 4), AsfItem::pairModules(5, 6, 4, 4)};
  AsfIsland island(items);
  Rng rng(3);
  for (int step = 0; step < 500; ++step) {
    island.perturb(rng);
    AsfPacked packed = island.pack();
    Placement p(7);
    for (std::size_t r = 0; r < packed.macro.rects.size(); ++r) {
      p[packed.macro.owners[r]] = packed.macro.rects[r];
    }
    ASSERT_TRUE(p.isLegal()) << "step " << step;
    ASSERT_TRUE(mirroredAboutX2(p[0], p[1], packed.axis2x)) << "step " << step;
    ASSERT_TRUE(mirroredAboutX2(p[2], p[3], packed.axis2x)) << "step " << step;
    ASSERT_TRUE(mirroredAboutX2(p[5], p[6], packed.axis2x)) << "step " << step;
    ASSERT_TRUE(centeredOnX2(p[4], packed.axis2x)) << "step " << step;
  }
}

TEST(AsfIsland, MacroPairsMirrorWholeSubcircuits) {
  // Hierarchical symmetry: a 2-module sub-circuit and its mirrored partner.
  Placement sub;
  sub.push({0, 0, 4, 4});
  sub.push({4, 0, 6, 2});
  Macro right = Macro::fromPlacement(sub, std::vector<ModuleId>{0, 1});
  std::vector<AsfItem> items{AsfItem::pairMacros(right, {2, 3}),
                             AsfItem::pairModules(4, 5, 4, 4)};
  AsfIsland island(items);
  AsfPacked packed = island.pack();
  Placement p(6);
  for (std::size_t r = 0; r < packed.macro.rects.size(); ++r) {
    p[packed.macro.owners[r]] = packed.macro.rects[r];
  }
  EXPECT_TRUE(p.isLegal());
  // Each module of the right sub-circuit mirrors onto its partner.
  EXPECT_TRUE(mirroredAboutX2(p[0], p[2], packed.axis2x));
  EXPECT_TRUE(mirroredAboutX2(p[1], p[3], packed.axis2x));
  EXPECT_TRUE(mirroredAboutX2(p[4], p[5], packed.axis2x));
}

class CentroidPatternTest
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(CentroidPatternTest, CentroidsCoincideExactly) {
  auto [unitsA, unitsB] = GetParam();
  CentroidPattern pattern = commonCentroidPattern(unitsA, unitsB);
  EXPECT_EQ(pattern.rows * pattern.cols, unitsA + unitsB);
  EXPECT_EQ(pattern.rows % 2, 0u);
  Placement p = placeCentroidPattern(pattern, 4000, 3000);
  ASSERT_EQ(p.size(), unitsA + unitsB);
  EXPECT_TRUE(p.isLegal());
  std::vector<Rect> a(p.rects().begin(),
                      p.rects().begin() + static_cast<std::ptrdiff_t>(unitsA));
  std::vector<Rect> b(p.rects().begin() + static_cast<std::ptrdiff_t>(unitsA),
                      p.rects().end());
  EXPECT_TRUE(centroidsCoincide(a, b));
}

INSTANTIATE_TEST_SUITE_P(UnitCounts, CentroidPatternTest,
                         ::testing::Values(std::pair<std::size_t, std::size_t>{2, 2},
                                           std::pair<std::size_t, std::size_t>{4, 4},
                                           std::pair<std::size_t, std::size_t>{6, 6},
                                           std::pair<std::size_t, std::size_t>{8, 8},
                                           std::pair<std::size_t, std::size_t>{16, 16}));

TEST(CentroidGrid, SingleArrayIsConnectedAndGridded) {
  std::vector<ModuleId> units{0, 1, 2, 3};
  Macro m = commonCentroidGrid(units, 4000, 4000);
  EXPECT_EQ(m.rects.size(), 4u);
  EXPECT_TRUE(isConnectedRegion(m.rects));
  EXPECT_EQ(m.w, 8000);
  EXPECT_EQ(m.h, 8000);
}

TEST(ConnectedRegion, DetectsDisconnection) {
  std::vector<Rect> connected{{0, 0, 4, 4}, {4, 0, 4, 4}, {0, 4, 4, 4}};
  EXPECT_TRUE(isConnectedRegion(connected));
  std::vector<Rect> cornerOnly{{0, 0, 4, 4}, {4, 4, 4, 4}};
  EXPECT_FALSE(isConnectedRegion(cornerOnly));
  std::vector<Rect> apart{{0, 0, 4, 4}, {10, 0, 4, 4}};
  EXPECT_FALSE(isConnectedRegion(apart));
}

TEST(HBStar, Fig2DesignPacksWithAllConstraints) {
  Circuit c = makeFig2Design();
  HBState state(c);
  HBState::Packed packed = state.pack();
  EXPECT_TRUE(packed.placement.isLegal());
  // Symmetry group (D,E) exactly mirrored about the reported axis.
  const SymmetryGroup& g = c.symmetryGroup(0);
  Coord axis = packed.axis2x[0];
  EXPECT_TRUE(mirroredAboutX2(packed.placement[g.pairs[0].a],
                              packed.placement[g.pairs[0].b], axis));
  // Proximity group J/K/F connected.
  const HierTree& h = c.hierarchy();
  for (HierNodeId id = 0; id < h.nodeCount(); ++id) {
    if (h.node(id).constraint == GroupConstraint::Proximity) {
      std::vector<Rect> rects;
      for (ModuleId m : h.leavesUnder(id)) rects.push_back(packed.placement[m]);
      EXPECT_TRUE(isConnectedRegion(rects));
    }
  }
}

TEST(HBStar, Fig2PerturbationsPreserveConstraints) {
  Circuit c = makeFig2Design();
  HBState state(c);
  Rng rng(17);
  const SymmetryGroup& g = c.symmetryGroup(0);
  for (int step = 0; step < 300; ++step) {
    state.perturb(rng);
    HBState::Packed packed = state.pack();
    ASSERT_TRUE(packed.placement.isLegal()) << "step " << step;
    ASSERT_TRUE(mirroredAboutX2(packed.placement[g.pairs[0].a],
                                packed.placement[g.pairs[0].b],
                                packed.axis2x[0]))
        << "step " << step;
  }
}

TEST(HBStar, MillerOpAmpAnnealsSymmetrically) {
  Circuit c = makeMillerOpAmp();
  HBPlacerOptions opt;
  opt.maxSweeps = 250;
  opt.seed = 23;
  HBPlacerResult r = placeHBStarSA(c, opt);
  EXPECT_TRUE(r.placement.isLegal());
  EXPECT_TRUE(verifySymmetry(r.placement, c.symmetryGroups(), r.axis2x));
  EXPECT_LT(r.area, 4 * c.totalModuleArea());
}

TEST(HBStar, SyntheticHierarchicalCircuitPlaces) {
  Circuit c = makeSynthetic({.name = "hb", .moduleCount = 30, .seed = 4});
  HBPlacerOptions opt;
  opt.maxSweeps = 250;
  HBPlacerResult r = placeHBStarSA(c, opt);
  EXPECT_TRUE(r.placement.isLegal());
  EXPECT_TRUE(verifySymmetry(r.placement, c.symmetryGroups(), r.axis2x));
}

TEST(HBStar, ScratchReuseAcrossCircuitsNeverChangesResults) {
  // The scratch-reuse contract (engine/place_scratch.h): a scratch handed
  // from one circuit's run to another's must not influence results — in
  // particular each session must rebuild the common-centroid macros and
  // never read a node buffer packed for the other circuit.
  HBPlacerOptions opt;
  opt.maxSweeps = 40;
  opt.seed = 5;
  Circuit a = makeFig2Design();
  Circuit b = makeMillerOpAmp();
  HBPlacerResult freshA = placeHBStarSA(a, opt);
  HBPlacerResult freshB = placeHBStarSA(b, opt);

  HBStarScratch scratch;
  auto withScratch = [&](const Circuit& c) {
    return AnnealSession<HBStarBackend>(c, opt, 1.0, &scratch).finish();
  };
  HBPlacerResult a1 = withScratch(a);
  HBPlacerResult b1 = withScratch(b);  // scratch warm from a
  HBPlacerResult a2 = withScratch(a);  // scratch warm from b
  EXPECT_EQ(freshA.placement.rects(), a1.placement.rects());
  EXPECT_EQ(freshA.placement.rects(), a2.placement.rects());
  EXPECT_EQ(freshB.placement.rects(), b1.placement.rects());
  EXPECT_EQ(freshA.cost, a2.cost);
  EXPECT_EQ(freshB.cost, b1.cost);
}

TEST(FlatBStar, ReportsResidualViolationsHonestly) {
  Circuit c = makeFig2Design();
  FlatBStarOptions opt;
  opt.maxSweeps = 150;
  FlatBStarResult r = placeFlatBStarSA(c, opt);
  EXPECT_TRUE(r.placement.isLegal());  // B*-trees are always overlap-free
  EXPECT_GE(r.symDeviation, 0);
  EXPECT_GE(r.proximityViolations, 0);
}

}  // namespace
}  // namespace als
