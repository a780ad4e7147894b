#include <gtest/gtest.h>

#include <algorithm>

#include "io/corpus.h"
#include "netlist/generators.h"
#include "seqpair/moves.h"
#include "seqpair/packer.h"
#include "seqpair/sa_placer.h"
#include "seqpair/sequence_pair.h"
#include "seqpair/sym_placer.h"
#include "seqpair/symmetry.h"
#include "test_util.h"

namespace als {
namespace {

// Module order in makeFig1Example: E=0 B=1 A=2 F=3 C=4 D=5 G=6.
SequencePair paperFig1Pair() {
  // (EBAFCDG, EBCDFAG)
  return SequencePair({0, 1, 2, 3, 4, 5, 6}, {0, 1, 4, 5, 3, 2, 6});
}

TEST(SequencePair, IdentityAndInverses) {
  SequencePair sp(4);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(sp.alphaPos(i), i);
    EXPECT_EQ(sp.betaPos(i), i);
  }
  EXPECT_TRUE(sp.isValid());
}

TEST(SequencePair, SwapsKeepInversesInSync) {
  SequencePair sp(5);
  sp.swapAlphaModules(1, 3);
  EXPECT_EQ(sp.alphaPos(1), 3u);
  EXPECT_EQ(sp.alphaPos(3), 1u);
  sp.swapBetaAt(0, 4);
  EXPECT_EQ(sp.betaPos(4), 0u);
  EXPECT_EQ(sp.betaPos(0), 4u);
  EXPECT_TRUE(sp.isValid());
}

TEST(SequencePair, RelationsPartitionEveryPair) {
  Rng rng(3);
  SequencePair sp = SequencePair::random(8, rng);
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = 0; j < 8; ++j) {
      if (i == j) continue;
      int rel = sp.leftOf(i, j) + sp.leftOf(j, i) + sp.below(i, j) + sp.below(j, i);
      EXPECT_EQ(rel, 1) << i << "," << j;
    }
  }
}

TEST(SequencePair, ToStringUsesNames) {
  Circuit c = makeFig1Example();
  EXPECT_EQ(paperFig1Pair().toString(c.moduleNames()),
            "(E B A F C D G, E B C D F A G)");
}

TEST(Symmetry, PaperPairIsSymmetricFeasible) {
  Circuit c = makeFig1Example();
  EXPECT_TRUE(isSymmetricFeasible(paperFig1Pair(), c.symmetryGroup(0)));
}

TEST(Symmetry, BrokenOrderIsNotFeasible) {
  Circuit c = makeFig1Example();
  // Swap C and D in beta only: pair order now identical in both sequences'
  // mirror sense is broken.
  SequencePair sp({0, 1, 2, 3, 4, 5, 6}, {0, 1, 5, 4, 3, 2, 6});
  EXPECT_FALSE(isSymmetricFeasible(sp, c.symmetryGroup(0)));
}

TEST(Symmetry, MakeSymmetricFeasibleRepairsAnyPair) {
  Circuit c = makeFig1Example();
  auto groups = std::span<const SymmetryGroup>(c.symmetryGroups());
  Rng rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    SequencePair sp = SequencePair::random(7, rng);
    makeSymmetricFeasible(sp, groups);
    EXPECT_TRUE(isSymmetricFeasible(sp, groups));
    EXPECT_TRUE(sp.isValid());
  }
}

TEST(Symmetry, MakeSymmetricFeasibleReproducesPaperBeta) {
  // With alpha = EBAFCDG and beta slots of the group members as in the
  // paper's beta, the constructive rule yields exactly EBCDFAG.
  Circuit c = makeFig1Example();
  SequencePair sp({0, 1, 2, 3, 4, 5, 6}, {0, 1, 2, 3, 4, 5, 6});
  // beta = EBAFCDG initially; group slots {1,2,3,4,5,6}.
  makeSymmetricFeasible(sp, c.symmetryGroups());
  EXPECT_TRUE(isSymmetricFeasible(sp, c.symmetryGroup(0)));
  EXPECT_EQ(sp.toString(c.moduleNames()), "(E B A F C D G, E B C D F A G)");
}

TEST(Symmetry, SelfSymmetricCellsMustBeVerticallyRelated) {
  Circuit c = makeFig1Example();
  const SymmetryGroup& g = c.symmetryGroup(0);
  Rng rng(5);
  for (int trial = 0; trial < 100; ++trial) {
    SequencePair sp = SequencePair::random(7, rng);
    makeSymmetricFeasible(sp, c.symmetryGroups());
    // A (2) and F (3) are self-symmetric: exactly one of below(a,f)/below(f,a).
    EXPECT_TRUE(sp.below(2, 3) || sp.below(3, 2));
    // Mirror partners are horizontally related.
    for (const SymPair& p : g.pairs) {
      EXPECT_TRUE(sp.leftOf(p.a, p.b) || sp.leftOf(p.b, p.a));
    }
  }
}

// --- Packing ---

std::pair<std::vector<Coord>, std::vector<Coord>> dimsOf(const Circuit& c) {
  std::vector<Coord> w, h;
  for (const Module& m : c.modules()) {
    w.push_back(m.w);
    h.push_back(m.h);
  }
  return {w, h};
}

TEST(Packer, SingleModuleAtOrigin) {
  SequencePair sp(1);
  std::vector<Coord> w{10}, h{20};
  Placement p = packSequencePair(sp, w, h);
  EXPECT_EQ(p[0], (Rect{0, 0, 10, 20}));
}

TEST(Packer, TwoModulesHorizontalAndVertical) {
  std::vector<Coord> w{10, 6}, h{4, 8};
  {  // alpha = beta: 0 left of 1
    SequencePair sp(2);
    Placement p = packSequencePair(sp, w, h);
    EXPECT_EQ(p[1].x, 10);
    EXPECT_EQ(p[1].y, 0);
  }
  {  // reversed alpha: 0 after 1 in alpha, before in beta -> 0 below 1
    SequencePair sp({1, 0}, {0, 1});
    Placement p = packSequencePair(sp, w, h);
    EXPECT_EQ(p[0].y, 0);
    EXPECT_EQ(p[1].y, 4);
    EXPECT_EQ(p[1].x, 0);
  }
}

TEST(Packer, PlacementRespectsAllPairRelations) {
  Circuit c = makeTableICircuit(TableICircuit::FoldedCascode);
  auto [w, h] = dimsOf(c);
  Rng rng(17);
  for (int trial = 0; trial < 50; ++trial) {
    SequencePair sp = SequencePair::random(c.moduleCount(), rng);
    Placement p = packSequencePair(sp, w, h);
    // Random pairs ignore symmetry; the other shared invariants hold.
    test_util::expectPlacementInvariants(
        p, c, {.symTolerance = test_util::kNoSymmetryCheck},
        "trial " + std::to_string(trial));
    for (std::size_t i = 0; i < sp.size(); ++i) {
      for (std::size_t j = 0; j < sp.size(); ++j) {
        if (sp.leftOf(i, j)) {
          ASSERT_LE(p[i].xhi(), p[j].xlo());
        }
        if (sp.below(i, j)) {
          ASSERT_LE(p[i].yhi(), p[j].ylo());
        }
      }
    }
  }
}

TEST(Packer, FenwickMatchesReference) {
  // The Fenwick LCS kernel against the O(n^2) definition, on a Table I
  // circuit and on random instances from 1 to 140 modules.
  Circuit c = makeTableICircuit(TableICircuit::Buffer);
  auto [cw, ch] = dimsOf(c);
  Rng rng(23);
  for (int trial = 0; trial < 25; ++trial) {
    SequencePair sp = SequencePair::random(c.moduleCount(), rng);
    Placement ref = test_util::referencePackSequencePair(sp, cw, ch);
    Placement got = packSequencePair(sp, cw, ch);
    for (std::size_t m = 0; m < sp.size(); ++m) {
      ASSERT_EQ(got[m], ref[m]) << "module " << m << " trial " << trial;
    }
  }
  for (std::size_t n : {1u, 2u, 15u, 16u, 140u}) {
    std::vector<Coord> w(n), h(n);
    for (std::size_t m = 0; m < n; ++m) {
      w[m] = 1 + rng.uniformInt(0, 40);
      h[m] = 1 + rng.uniformInt(0, 40);
    }
    for (int trial = 0; trial < 5; ++trial) {
      SequencePair sp = SequencePair::random(n, rng);
      Placement ref = test_util::referencePackSequencePair(sp, w, h);
      Placement got = packSequencePair(sp, w, h);
      for (std::size_t m = 0; m < n; ++m) {
        ASSERT_EQ(got[m], ref[m]) << "n " << n << " module " << m;
      }
    }
  }
}

TEST(Packer, PackingIsLowerLeftCompacted) {
  // Every module either touches x = 0 or abuts some module on its left.
  Circuit c = makeTableICircuit(TableICircuit::MillerV2);
  auto [w, h] = dimsOf(c);
  Rng rng(31);
  SequencePair sp = SequencePair::random(c.moduleCount(), rng);
  Placement p = packSequencePair(sp, w, h);
  for (std::size_t m = 0; m < sp.size(); ++m) {
    if (p[m].x == 0) continue;
    bool supported = false;
    for (std::size_t i = 0; i < sp.size() && !supported; ++i) {
      supported = sp.leftOf(i, m) && p[i].xhi() == p[m].xlo();
    }
    EXPECT_TRUE(supported) << "module " << m << " floats in x";
  }
}

// --- Moves ---

TEST(SaPlacer, ResultSatisfiesAllInvariantsWithExactSymmetry) {
  // End-to-end: the symmetric-feasible annealer's result passes the shared
  // invariant checker in its strictest setting (exact mirror symmetry).
  Circuit c = makeMillerOpAmp();
  SeqPairPlacerOptions opt;
  opt.maxSweeps = 120;
  opt.seed = 19;
  SeqPairPlacerResult r = placeSeqPairSA(c, opt);
  test_util::expectPlacementInvariants(r.placement, c, {.symTolerance = 0});
}

TEST(Moves, PreserveSymmetricFeasibilityOverLongWalks) {
  Circuit c = makeMillerOpAmp();
  auto groups = std::span<const SymmetryGroup>(c.symmetryGroups());
  std::vector<bool> rotatable;
  for (const Module& m : c.modules()) rotatable.push_back(m.rotatable);
  SymmetricMoveSet moves(groups, rotatable);

  SeqPairState s{SequencePair(c.moduleCount()),
                 std::vector<bool>(c.moduleCount(), false)};
  makeSymmetricFeasible(s.sp, groups);
  Rng rng(41);
  for (int step = 0; step < 5000; ++step) {
    moves.apply(s, rng);
    ASSERT_TRUE(s.sp.isValid());
    ASSERT_TRUE(isSymmetricFeasible(s.sp, groups)) << "step " << step;
  }
}

TEST(Moves, RotationsKeepPairsMatched) {
  Circuit c = makeMillerOpAmp();
  auto groups = std::span<const SymmetryGroup>(c.symmetryGroups());
  std::vector<bool> rotatable(c.moduleCount(), true);
  SymmetricMoveSet moves(groups, rotatable);
  SeqPairState s{SequencePair(c.moduleCount()),
                 std::vector<bool>(c.moduleCount(), false)};
  makeSymmetricFeasible(s.sp, groups);
  Rng rng(43);
  for (int step = 0; step < 2000; ++step) {
    moves.apply(s, rng);
    for (const SymmetryGroup& g : c.symmetryGroups()) {
      for (const SymPair& p : g.pairs) {
        ASSERT_EQ(s.rotated[p.a], s.rotated[p.b]);
      }
    }
  }
}

// --- Scratch reuse ---

/// Random SA-shaped walk: mutate the pair (sequence swap or rotation) and
/// pack on one warm scratch, alternating the full pack with its
/// `packSequencePairIncrementalInto` name.  Every step must equal the
/// O(n^2) reference, and the incremental name must append every module id
/// after whatever `moved` already held.
void runWarmScratchWalk(std::size_t n, std::uint64_t seed, int steps) {
  Rng rng(seed);
  SequencePair sp = SequencePair::random(n, rng);
  std::vector<Coord> w(n), h(n);
  for (std::size_t m = 0; m < n; ++m) {
    w[m] = 1 + rng.uniformInt(0, 40);
    h[m] = 1 + rng.uniformInt(0, 40);
  }
  SeqPairPackScratch scratch;
  Placement out, ref;
  std::vector<std::size_t> moved;
  for (int step = 0; step < steps; ++step) {
    if (step > 0) {
      if (rng.uniform() < 0.25) {  // rotation: dims change, sequences don't
        std::size_t m = rng.index(n);
        std::swap(w[m], h[m]);
      } else {
        std::vector<std::size_t> a = sp.alpha(), b = sp.beta();
        auto& seq = rng.coin() ? a : b;
        std::size_t i = rng.index(n), j = rng.index(n);
        std::swap(seq[i], seq[j]);
        sp.assignSequences(a, b);
      }
    }
    ref = test_util::referencePackSequencePair(sp, w, h);
    if (step % 2 == 0) {
      packSequencePairInto(sp, w, h, PackStrategy::Auto, scratch, out);
    } else {
      moved.assign(static_cast<std::size_t>(step % 3), n);  // prior content
      const std::size_t before = moved.size();
      packSequencePairIncrementalInto(sp, w, h, PackStrategy::Auto, scratch,
                                      out, moved);
      ASSERT_EQ(moved.size(), before + n) << "step " << step;
      for (std::size_t i = 0; i < before; ++i) ASSERT_EQ(moved[i], n);
      for (std::size_t m = 0; m < n; ++m) ASSERT_EQ(moved[before + m], m);
    }
    ASSERT_EQ(out.size(), n);
    for (std::size_t m = 0; m < n; ++m) {
      ASSERT_TRUE(out[m] == ref[m]) << "step " << step << " module " << m;
    }
  }
}

TEST(PackerIncremental, IsTheFullPackAndListsEveryModule) {
  runWarmScratchWalk(6, 3, 120);
  runWarmScratchWalk(29, 5, 120);
  runWarmScratchWalk(61, 9, 120);
  runWarmScratchWalk(140, 13, 60);
}

TEST(SymPlacerIslandCache, WarmScratchMatchesFreshOverSymmetricWalks) {
  // The island signature cache must reproduce a cold build bit for bit at
  // every step of a feasibility-preserving walk.  One warm scratch serves
  // both circuits in turn, so the instance-shape gate is crossed too.
  SymPlaceScratch warmScratch;
  for (CorpusCircuit which : {CorpusCircuit::Ami33, CorpusCircuit::N100,
                              CorpusCircuit::Ami33}) {
    Circuit c = loadCorpusCircuit(which);
    auto groups = std::span<const SymmetryGroup>(c.symmetryGroups());
    std::vector<bool> rotatable;
    for (const Module& m : c.modules()) rotatable.push_back(m.rotatable);
    SymmetricMoveSet moves(groups, rotatable);
    SeqPairState s{SequencePair(c.moduleCount()),
                   std::vector<bool>(c.moduleCount(), false)};
    makeSymmetricFeasible(s.sp, groups);

    SymPlacementResult warm;
    SymBuildOptions opt;
    opt.verify = false;

    Rng rng(61);
    std::vector<Coord> w(c.moduleCount()), h(c.moduleCount());
    for (int step = 0; step < 60; ++step) {
      if (step > 0) moves.apply(s, rng);
      for (std::size_t m = 0; m < c.moduleCount(); ++m) {
        w[m] = s.rotated[m] ? c.module(m).h : c.module(m).w;
        h[m] = s.rotated[m] ? c.module(m).w : c.module(m).h;
      }
      ASSERT_TRUE(buildSymmetricPlacementInto(s.sp, w, h, groups, opt,
                                              warmScratch, warm));
      auto fresh = buildSymmetricPlacement(s.sp, w, h, groups);
      ASSERT_TRUE(fresh.has_value());
      ASSERT_EQ(warm.axis2x, fresh->axis2x) << corpusName(which);
      for (std::size_t m = 0; m < c.moduleCount(); ++m) {
        ASSERT_TRUE(warm.placement[m] == fresh->placement[m])
            << corpusName(which) << " step " << step << " module " << m;
      }
    }
  }
}

TEST(SymPlacerIslandCache, KeysOnThePairSelfSplit) {
  // Two groups over the same cells, footprints and order — one mirror pair
  // vs two self-symmetric cells — lay out differently, so a scratch warmed
  // on one must not serve the other's cached island.
  SymmetryGroup pair;
  pair.pairs = {{0, 1}};
  SymmetryGroup selfs;
  selfs.selfs = {0, 1};
  const std::vector<Coord> w = {4, 4, 6, 2}, h = {2, 2, 4, 8};
  // Identity code: 0 left of 1 — a legal pair; the two selfs cannot both
  // sit on one axis side by side, so their island takes the stacked
  // fallback.
  const SequencePair code(4);
  for (bool pairFirst : {true, false}) {
    SymPlaceScratch scratch;
    SymPlacementResult warm;
    const SymmetryGroup& first = pairFirst ? pair : selfs;
    const SymmetryGroup& second = pairFirst ? selfs : pair;
    ASSERT_TRUE(buildSymmetricPlacementInto(
        code, w, h, std::span<const SymmetryGroup>(&first, 1),
        SymBuildOptions{}, scratch, warm));
    const bool built = buildSymmetricPlacementInto(
        code, w, h, std::span<const SymmetryGroup>(&second, 1),
        SymBuildOptions{}, scratch, warm);
    auto fresh = buildSymmetricPlacement(
        code, w, h, std::span<const SymmetryGroup>(&second, 1));
    ASSERT_TRUE(fresh.has_value());
    ASSERT_TRUE(built);
    EXPECT_EQ(warm.axis2x, fresh->axis2x);
    EXPECT_EQ(warm.placement.rects(), fresh->placement.rects());
  }
}

TEST(SaPlacer, WarmScratchMatchesFreshScratchTrajectory) {
  // Same seed, one caller-owned scratch warmed by runs on other circuits
  // vs the run's own fresh buffers: bit-identical SA trajectories (a
  // scratch never influences results, only allocations).
  SeqPairScratch shared;
  for (CorpusCircuit which : {CorpusCircuit::Apte, CorpusCircuit::Ami33,
                              CorpusCircuit::N100, CorpusCircuit::Ami33}) {
    Circuit c = loadCorpusCircuit(which);
    SeqPairPlacerOptions warm, fresh;
    warm.maxSweeps = fresh.maxSweeps = which == CorpusCircuit::N100 ? 6 : 24;
    warm.seed = fresh.seed = 83;
    warm.scratch = &shared;
    SeqPairPlacerResult a = placeSeqPairSA(c, warm);
    SeqPairPlacerResult b = placeSeqPairSA(c, fresh);
    ASSERT_EQ(a.movesTried, b.movesTried) << corpusName(which);
    ASSERT_EQ(a.cost, b.cost) << corpusName(which);
    ASSERT_EQ(a.area, b.area);
    ASSERT_EQ(a.hpwl, b.hpwl);
    ASSERT_EQ(a.placement.rects(), b.placement.rects()) << corpusName(which);
  }
}

}  // namespace
}  // namespace als
