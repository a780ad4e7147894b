#include <gtest/gtest.h>

#include "bstar/bstar_tree.h"
#include "bstar/contour.h"
#include "bstar/pack.h"
#include "netlist/generators.h"
#include "test_util.h"

namespace als {
namespace {

TEST(BStarTree, BalancedConstruction) {
  BStarTree t(7);
  EXPECT_TRUE(t.isValid());
  EXPECT_EQ(t.root(), 0u);
  EXPECT_EQ(t.left(0), 1u);
  EXPECT_EQ(t.right(0), 2u);
  EXPECT_EQ(t.preorder().size(), 7u);
}

TEST(BStarTree, EmptyAndSingle) {
  BStarTree empty(0);
  EXPECT_TRUE(empty.isValid());
  EXPECT_TRUE(empty.preorder().empty());
  BStarTree one(1);
  EXPECT_TRUE(one.isValid());
  EXPECT_EQ(one.preorder(), std::vector<std::size_t>{0});
}

TEST(BStarTree, RandomTreesAreValid) {
  Rng rng(5);
  for (int trial = 0; trial < 100; ++trial) {
    BStarTree t = BStarTree::random(1 + rng.index(20), rng);
    EXPECT_TRUE(t.isValid());
  }
}

TEST(BStarTree, PerturbationsPreserveValidity) {
  Rng rng(7);
  BStarTree t = BStarTree::random(12, rng);
  for (int step = 0; step < 2000; ++step) {
    t.perturb(rng);
    ASSERT_TRUE(t.isValid()) << "step " << step;
  }
}

TEST(BStarTree, MoveNodeSplicesDisplacedChild) {
  BStarTree t(3);  // 0 root, 1 = left, 2 = right
  // Move leaf 1 to be the left child of 2.
  t.moveNode(1, 2, true);
  EXPECT_TRUE(t.isValid());
  EXPECT_EQ(t.left(2), 1u);
  EXPECT_EQ(t.left(0), BStarTree::npos);
}

TEST(Contour, RaiseAndQuery) {
  Contour c;
  EXPECT_EQ(c.maxOver(0, 100), 0);
  c.raise(0, 10, 5);
  EXPECT_EQ(c.maxOver(0, 10), 5);
  EXPECT_EQ(c.maxOver(10, 20), 0);
  c.raise(5, 15, 3);
  EXPECT_EQ(c.heightAt(0), 5);
  EXPECT_EQ(c.heightAt(5), 3);  // overwrite semantics
  EXPECT_EQ(c.heightAt(12), 3);
  EXPECT_EQ(c.maxOver(0, 20), 5);
}

TEST(Contour, FitMacroSteppedBottom) {
  Contour c;
  c.raise(0, 10, 8);
  c.raise(10, 30, 2);
  // Macro with a notch: tall part must clear height 8 only if it overlaps
  // [0,10); bottom rises to 6 over [0,4), flat 0 elsewhere.
  std::vector<ProfileStep> bottom{{0, 4, 6}, {4, 12, 0}};
  // Anchored at x=0: max(8-6, 8-0 over [4,10), 2-0 over [10,12)) = 8.
  EXPECT_EQ(c.fitMacro(0, bottom), 8);
  // Anchored at x=10: only the flat region meets height 2 -> y = 2... but
  // the notched part [10,14) also sits over height 2: max(2-6, 2-0) = 2.
  EXPECT_EQ(c.fitMacro(10, bottom), 2);
}

std::pair<std::vector<Coord>, std::vector<Coord>> dimsOf(const Circuit& c) {
  std::vector<Coord> w, h;
  for (const Module& m : c.modules()) {
    w.push_back(m.w);
    h.push_back(m.h);
  }
  return {w, h};
}

TEST(BStarPack, TwoModuleSemantics) {
  std::vector<Coord> w{10, 6}, h{4, 8};
  {  // 1 as left child of 0: to the right.
    BStarTree t(2);
    t.moveNode(1, 0, true);
    Placement p = packBStar(t, w, h);
    EXPECT_EQ(p[0], (Rect{0, 0, 10, 4}));
    EXPECT_EQ(p[1], (Rect{10, 0, 6, 8}));
  }
  {  // 1 as right child of 0: stacked above.
    BStarTree t(2);
    t.moveNode(1, 0, false);
    Placement p = packBStar(t, w, h);
    EXPECT_EQ(p[1], (Rect{0, 4, 6, 8}));
  }
}

TEST(BStarPack, AlwaysLegalAndCompact) {
  Circuit c = makeTableICircuit(TableICircuit::FoldedCascode);
  auto [w, h] = dimsOf(c);
  Rng rng(11);
  for (int trial = 0; trial < 60; ++trial) {
    BStarTree t = BStarTree::random(c.moduleCount(), rng);
    Placement p = packBStar(t, w, h);
    // Raw B*-tree packing ignores symmetry groups; the shared invariants
    // otherwise apply (footprints, overlap-freedom, non-negative quadrant).
    test_util::expectPlacementInvariants(
        p, c, {.symTolerance = test_util::kNoSymmetryCheck},
        "trial " + std::to_string(trial));
    // Lower-left compaction: bounding box anchored at the origin.
    EXPECT_EQ(p.boundingBox().x, 0);
    EXPECT_EQ(p.boundingBox().y, 0);
    EXPECT_GE(p.boundingBox().area(), c.totalModuleArea());
  }
}

TEST(BStarPack, PerturbedTreesStayLegal) {
  Circuit c = makeTableICircuit(TableICircuit::MillerV2);
  auto [w, h] = dimsOf(c);
  Rng rng(13);
  BStarTree t = BStarTree::random(c.moduleCount(), rng);
  for (int step = 0; step < 300; ++step) {
    t.perturb(rng);
    Placement p = packBStar(t, w, h);
    test_util::expectPlacementInvariants(
        p, c, {.symTolerance = test_util::kNoSymmetryCheck},
        "step " + std::to_string(step));
  }
}

TEST(BStarPack, MacroWithNotchInterleaves) {
  // Macro 0: an L-shape (tall tower + low shelf).  Module 1 placed as its
  // left child must slide into the shelf's airspace... it packs at the bbox
  // edge in x but its y can drop onto the shelf.
  Placement lshape;
  lshape.push({0, 0, 4, 20});
  lshape.push({4, 0, 16, 5});
  Macro l = Macro::fromPlacement(lshape, std::vector<ModuleId>{0, 1});
  Macro m = Macro::fromModule(2, 10, 10);

  BStarTree t(2);
  t.moveNode(1, 0, true);  // item 1 (module macro) right of item 0
  PackedMacros packed = packMacros(t, std::vector<Macro>{l, m}, 3);
  EXPECT_TRUE(packed.placement.isLegal());
  // Module 2 sits at x = 20 (bbox width), y = 0 (ground, right of shelf).
  EXPECT_EQ(packed.placement[2], (Rect{20, 0, 10, 10}));

  // As right child (stacked): the macro's top profile lets module 2 rest on
  // the shelf at height 5 instead of the tower top 20 — the contour-node
  // advantage over bounding boxes.
  BStarTree t2(2);
  t2.moveNode(1, 0, false);
  PackedMacros stacked = packMacros(t2, std::vector<Macro>{l, m}, 3);
  EXPECT_TRUE(stacked.placement.isLegal());
  EXPECT_EQ(stacked.placement[2].y, 20);  // anchored at x=0 over the tower
}

TEST(BStarPack, MacroAnchorsReported) {
  Macro a = Macro::fromModule(0, 10, 10);
  Macro b = Macro::fromModule(1, 5, 5);
  BStarTree t(2);
  t.moveNode(1, 0, true);
  PackedMacros packed = packMacros(t, std::vector<Macro>{a, b}, 2);
  EXPECT_EQ(packed.anchor[0], (Point{0, 0}));
  EXPECT_EQ(packed.anchor[1], (Point{10, 0}));
  EXPECT_EQ(packed.width, 15);
  EXPECT_EQ(packed.height, 10);
}

TEST(Macro, FromPlacementComputesProfiles) {
  Placement p;
  p.push({0, 0, 10, 20});
  p.push({10, 0, 10, 5});
  Macro m = Macro::fromPlacement(p, std::vector<ModuleId>{0, 1});
  EXPECT_EQ(m.w, 20);
  EXPECT_EQ(m.h, 20);
  ASSERT_EQ(m.top.size(), 2u);
  EXPECT_EQ(m.top[0].v, 20);
  EXPECT_EQ(m.top[1].v, 5);
  ASSERT_EQ(m.bottom.size(), 1u);  // flat bottom merges into one step
  EXPECT_EQ(m.bottom[0].v, 0);
}

TEST(BStarPack, PartialEntryPointEqualsFullPack) {
  // packBStarPartialInto is a name for packBStarInto: over a random
  // perturbation walk on one warm scratch each, the two agree rect for rect.
  Rng rng(2024);
  for (std::size_t n : {1u, 2u, 9u, 33u, 100u}) {
    std::vector<Coord> w(n), h(n);
    for (std::size_t m = 0; m < n; ++m) {
      w[m] = 1 + rng.uniformInt(0, 30);
      h[m] = 1 + rng.uniformInt(0, 30);
    }
    BStarTree tree = BStarTree::random(n, rng);
    BStarPackScratch partialScratch, fullScratch;
    Placement partial, full;
    for (int step = 0; step < 60; ++step) {
      if (rng.uniform() < 0.2) {  // orientation move: dims change, tree doesn't
        std::size_t m = rng.index(n);
        std::swap(w[m], h[m]);
      } else {
        tree.perturb(rng);
      }
      EXPECT_EQ(packBStarPartialInto(tree, w, h, partialScratch, partial), 0u);
      packBStarInto(tree, w, h, fullScratch, full);
      ASSERT_EQ(partial.size(), n);
      for (std::size_t m = 0; m < n; ++m) {
        ASSERT_TRUE(partial[m] == full[m])
            << "n " << n << " step " << step << " module " << m;
      }
    }
  }
}

TEST(Macro, MirrorPreservesFootprintMultiset) {
  Placement p;
  p.push({0, 0, 4, 8});
  p.push({4, 2, 6, 3});
  Macro m = Macro::fromPlacement(p, std::vector<ModuleId>{0, 1});
  Macro mm = m.mirroredX();
  EXPECT_EQ(mm.w, m.w);
  EXPECT_EQ(mm.h, m.h);
  // Rect 0 lands on the right side after mirroring.
  EXPECT_EQ(mm.rects[0].xlo(), 6);
}

}  // namespace
}  // namespace als
