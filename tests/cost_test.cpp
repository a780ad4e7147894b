// Property suite of the unified cost layer (cost/objective.h,
// cost/cost_model.h): the incremental propose/commit/rollback protocol must
// produce costs EXACTLY equal — bit for bit, not approximately — to a
// from-scratch evaluation, across every backend's move set, and the
// annealer driving it must retrace the scratch trajectory move for move.
#include <gtest/gtest.h>

#include <optional>
#include <thread>
#include <vector>

#include "anneal/annealer.h"
#include "bstar/bstar_tree.h"
#include "bstar/hbstar.h"
#include "bstar/pack.h"
#include "cost/cost_model.h"
#include "engine/placement_engine.h"
#include "netlist/generators.h"
#include "seqpair/moves.h"
#include "seqpair/sym_placer.h"
#include "seqpair/symmetry.h"
#include "slicing/polish.h"
#include "thermal/thermal.h"
#include "util/rng.h"

namespace als {
namespace {

std::vector<Circuit> testCircuits() {
  std::vector<Circuit> out;
  out.push_back(makeMillerOpAmp());
  out.push_back(makeFig2Design());
  out.push_back(makeSynthetic(
      {.name = "syn40", .moduleCount = 40, .seed = 17, .symmetricFraction = 0.6}));
  return out;
}

void moduleDims(const Circuit& c, const std::vector<bool>& rotated,
                std::vector<Coord>* w, std::vector<Coord>* h) {
  const std::size_t n = c.moduleCount();
  w->resize(n);
  h->resize(n);
  for (std::size_t m = 0; m < n; ++m) {
    const Module& mod = c.module(m);
    (*w)[m] = rotated[m] ? mod.h : mod.w;
    (*h)[m] = rotated[m] ? mod.w : mod.h;
  }
}

/// Runs `steps` random propose/commit/rollback rounds of `move` on `state`,
/// asserting after every propose that the incremental cost equals the
/// scratch cost of the decoded placement exactly, and after every commit
/// that the committed aggregates equal a fresh scratch evaluation.
template <class State, class DecodeF, class MoveF>
void exerciseProtocol(CostModel& model, State state, DecodeF&& decode,
                      MoveF&& move, std::size_t steps, std::uint64_t seed) {
  Rng rng(seed);
  std::optional<Placement> placed = decode(state);
  ASSERT_TRUE(placed.has_value());
  model.reset(*placed);
  EXPECT_EQ(model.committedCost(), model.evaluate(*placed));

  for (std::size_t i = 0; i < steps; ++i) {
    State next = move(state, rng);
    std::optional<Placement> p = decode(next);
    ASSERT_TRUE(p.has_value());
    double incremental = model.propose(*p);
    EXPECT_EQ(incremental, model.evaluate(*p)) << "step " << i;
    if (rng.uniform() < 0.5) {
      model.commit();
      state = std::move(next);
      EXPECT_EQ(model.committedCost(), model.evaluate(*p)) << "step " << i;
    } else {
      model.rollback();
    }
    if (i % 97 == 0) {
      // The committed aggregates must still match scratch exactly.
      std::optional<Placement> cur = decode(state);
      ASSERT_TRUE(cur.has_value());
      CostBreakdown fresh = model.evaluateBreakdown(*cur);
      EXPECT_EQ(model.committed().hpwl, fresh.hpwl);
      EXPECT_EQ(model.committed().area, fresh.area);
      EXPECT_EQ(model.committed().thermalMismatch, fresh.thermalMismatch);
      EXPECT_EQ(model.committedCost(), fresh.cost);
    }
  }
}

TEST(CostModel, FlatBStarMovesIncrementalEqualsScratch) {
  for (const Circuit& c : testCircuits()) {
    const std::size_t n = c.moduleCount();
    CostModel model(c, makeObjective(c, {.wirelength = 0.25,
                                         .symmetry = 2.0,
                                         .proximity = 2.0}));
    struct FlatState {
      BStarTree tree;
      std::vector<bool> rotated;
    };
    auto decode = [&](const FlatState& s) -> std::optional<Placement> {
      std::vector<Coord> w, h;
      moduleDims(c, s.rotated, &w, &h);
      return packBStar(s.tree, w, h);
    };
    auto move = [&](const FlatState& s, Rng& rng) {
      FlatState next = s;
      if (rng.uniform() < 0.15) {
        std::size_t m = rng.index(n);
        if (c.module(m).rotatable) next.rotated[m] = !next.rotated[m];
      } else {
        next.tree.perturb(rng);
      }
      return next;
    };
    exerciseProtocol(model, FlatState{BStarTree(n), std::vector<bool>(n, false)},
                     decode, move, 1500, 3);
  }
}

TEST(CostModel, SeqPairMovesIncrementalEqualsScratch) {
  for (const Circuit& c : testCircuits()) {
    const std::size_t n = c.moduleCount();
    const auto groups = std::span<const SymmetryGroup>(c.symmetryGroups());
    CostModel model(c, makeObjective(c, {.wirelength = 0.25,
                                         .outline = 4.0,
                                         .maxWidth = 120 * kUm,
                                         .targetAspect = 1.0}));
    std::vector<bool> rotatable(n);
    for (std::size_t m = 0; m < n; ++m) rotatable[m] = c.module(m).rotatable;
    SymmetricMoveSet moves(groups, rotatable, true);
    SeqPairState init{SequencePair(n), std::vector<bool>(n, false)};
    makeSymmetricFeasible(init.sp, groups);
    auto decode = [&](const SeqPairState& s) -> std::optional<Placement> {
      std::vector<Coord> w, h;
      moduleDims(c, s.rotated, &w, &h);
      auto built = buildSymmetricPlacement(s.sp, w, h, groups);
      if (!built) return std::nullopt;
      return std::move(built->placement);
    };
    auto move = [&](const SeqPairState& s, Rng& rng) {
      SeqPairState next = s;
      moves.apply(next, rng);
      return next;
    };
    exerciseProtocol(model, init, decode, move, 1000, 5);
  }
}

TEST(CostModel, SlicingMovesIncrementalEqualsScratch) {
  for (const Circuit& c : testCircuits()) {
    const std::size_t n = c.moduleCount();
    CostModel model(c, makeObjective(c, {.wirelength = 0.25}));
    std::vector<Coord> w, h;
    moduleDims(c, std::vector<bool>(n, false), &w, &h);
    std::vector<bool> rotatable(n);
    for (std::size_t m = 0; m < n; ++m) rotatable[m] = c.module(m).rotatable;
    auto decode = [&](const PolishExpr& e) -> std::optional<Placement> {
      return std::move(evaluatePolish(e, w, h, rotatable, 32).placement);
    };
    auto move = [](const PolishExpr& e, Rng& rng) {
      PolishExpr next = e;
      next.perturb(rng);
      return next;
    };
    exerciseProtocol(model, PolishExpr::initial(n), decode, move, 1500, 7);
  }
}

TEST(CostModel, HBStarMovesIncrementalEqualsScratch) {
  for (const Circuit& c : testCircuits()) {
    CostModel model(c, makeObjective(c, {.wirelength = 0.25}));
    auto decode = [](const HBState& s) -> std::optional<Placement> {
      return std::move(s.pack().placement);
    };
    auto move = [](const HBState& s, Rng& rng) {
      HBState next = s;
      next.perturb(rng);
      return next;
    };
    exerciseProtocol(model, HBState(c), decode, move, 800, 9);
  }
}

// ------------------------------------------------------------ thermal ----

/// Test circuits with radiators: every third module dissipates, so the
/// thermal term is live on all of them.
std::vector<Circuit> thermalCircuits() {
  std::vector<Circuit> out = testCircuits();
  for (Circuit& c : out) {
    for (std::size_t m = 0; m < c.moduleCount(); m += 3) {
      c.module(m).powerW = 0.15 + 0.05 * static_cast<double>(m % 5);
    }
  }
  return out;
}

/// The scratch thermal oracle straight from thermal/thermal.h — an
/// independent reimplementation of the objective term: build a ThermalField
/// from the circuit's Power annotations and sum the quantized pair
/// mismatches.  The CostModel's committed aggregate must EXPECT_EQ this.
Coord fieldThermalMismatch(const Circuit& c, const Placement& p) {
  std::vector<double> power;
  for (const Module& m : c.modules()) power.push_back(m.powerW);
  ThermalField field(sourcesFromPlacement(p, power));
  Coord total = 0;
  for (const SymmetryGroup& g : c.symmetryGroups()) {
    for (const SymPair& pr : g.pairs) {
      Point a2 = p[pr.a].center2x();
      Point b2 = p[pr.b].center2x();
      std::int64_t ta = field.quantizedAt(static_cast<double>(a2.x) / 2000.0,
                                          static_cast<double>(a2.y) / 2000.0);
      std::int64_t tb = field.quantizedAt(static_cast<double>(b2.x) / 2000.0,
                                          static_cast<double>(b2.y) / 2000.0);
      total += std::abs(ta - tb);
    }
  }
  return total;
}

TEST(CostModelThermal, MismatchMatchesThermalFieldOracle) {
  for (const Circuit& c : thermalCircuits()) {
    const std::size_t n = c.moduleCount();
    CostModel model(c, makeObjective(c, {.wirelength = 0.25, .thermal = 2.0}));
    std::vector<Coord> w, h;
    moduleDims(c, std::vector<bool>(n, false), &w, &h);
    Rng rng(61);
    for (int t = 0; t < 20; ++t) {
      Placement p = packBStar(BStarTree::random(n, rng), w, h);
      EXPECT_EQ(model.thermalMismatch(p), fieldThermalMismatch(c, p));
    }
  }
}

TEST(CostModelThermal, IncrementalEqualsScratchUnderFlatMoves) {
  for (const Circuit& c : thermalCircuits()) {
    const std::size_t n = c.moduleCount();
    CostModel model(c, makeObjective(c, {.wirelength = 0.25,
                                         .symmetry = 2.0,
                                         .proximity = 2.0,
                                         .thermal = 2.0}));
    struct FlatState {
      BStarTree tree;
      std::vector<bool> rotated;
    };
    auto decode = [&](const FlatState& s) -> std::optional<Placement> {
      std::vector<Coord> w, h;
      moduleDims(c, s.rotated, &w, &h);
      return packBStar(s.tree, w, h);
    };
    auto move = [&](const FlatState& s, Rng& rng) {
      FlatState next = s;
      if (rng.uniform() < 0.15) {
        std::size_t m = rng.index(n);
        if (c.module(m).rotatable) next.rotated[m] = !next.rotated[m];
      } else {
        next.tree.perturb(rng);
      }
      return next;
    };
    exerciseProtocol(model, FlatState{BStarTree(n), std::vector<bool>(n, false)},
                     decode, move, 1200, 13);
  }
}

TEST(CostModelThermal, IncrementalEqualsScratchUnderSeqPairMoves) {
  for (const Circuit& c : thermalCircuits()) {
    const std::size_t n = c.moduleCount();
    const auto groups = std::span<const SymmetryGroup>(c.symmetryGroups());
    CostModel model(c, makeObjective(c, {.wirelength = 0.25,
                                         .outline = 4.0,
                                         .thermal = 1.5,
                                         .maxWidth = 120 * kUm}));
    std::vector<bool> rotatable(n);
    for (std::size_t m = 0; m < n; ++m) rotatable[m] = c.module(m).rotatable;
    SymmetricMoveSet moves(groups, rotatable, true);
    SeqPairState init{SequencePair(n), std::vector<bool>(n, false)};
    makeSymmetricFeasible(init.sp, groups);
    auto decode = [&](const SeqPairState& s) -> std::optional<Placement> {
      std::vector<Coord> w, h;
      moduleDims(c, s.rotated, &w, &h);
      auto built = buildSymmetricPlacement(s.sp, w, h, groups);
      if (!built) return std::nullopt;
      return std::move(built->placement);
    };
    auto move = [&](const SeqPairState& s, Rng& rng) {
      SeqPairState next = s;
      moves.apply(next, rng);
      return next;
    };
    exerciseProtocol(model, init, decode, move, 800, 15);
  }
}

// Shape-selection moves change a module's realized footprint between
// proposes — the cost model only ever sees the decoded placement, so the
// incremental thermal/hpwl/area aggregates must stay exact through
// footprint swaps too (this is the alloc-free move seam the backends use).
TEST(CostModelThermal, IncrementalEqualsScratchUnderShapeMoves) {
  for (Circuit& c : thermalCircuits()) {
    const std::size_t n = c.moduleCount();
    for (std::size_t m = 0; m < n; m += 4) {
      Module& mod = c.module(m);
      mod.shapes = {{mod.w, mod.h},
                    {mod.w + (mod.w + 1) / 2, (2 * mod.h + 2) / 3},
                    {(2 * mod.w + 2) / 3, mod.h + (mod.h + 1) / 2}};
    }
    CostModel model(c, makeObjective(c, {.wirelength = 0.25,
                                         .symmetry = 2.0,
                                         .thermal = 2.0}));
    struct ShapeState {
      BStarTree tree;
      std::vector<std::uint8_t> shapeIdx;
    };
    auto decode = [&](const ShapeState& s) -> std::optional<Placement> {
      std::vector<Coord> w(n), h(n);
      for (std::size_t m = 0; m < n; ++m) {
        const Module& mod = c.module(m);
        const ModuleShape& shape =
            mod.shapes.empty() ? ModuleShape{mod.w, mod.h}
                               : mod.shapes[s.shapeIdx[m]];
        w[m] = shape.w;
        h[m] = shape.h;
      }
      return packBStar(s.tree, w, h);
    };
    auto move = [&](const ShapeState& s, Rng& rng) {
      ShapeState next = s;
      if (rng.uniform() < 0.3) {
        std::size_t m = rng.index(n);
        if (!c.module(m).shapes.empty()) {
          next.shapeIdx[m] = static_cast<std::uint8_t>(
              rng.index(c.module(m).shapes.size()));
        }
      } else {
        next.tree.perturb(rng);
      }
      return next;
    };
    exerciseProtocol(model,
                     ShapeState{BStarTree(n), std::vector<std::uint8_t>(n, 0)},
                     decode, move, 1200, 17);
  }
}

// The paper's mirror argument, pinned exactly: pairs mirrored about an axis
// with every radiator centered ON the axis see bit-identical quantized
// temperatures, so the mismatch term is exactly zero.  Coordinates are
// multiples of 1000 DBU (integer um), so the DBU->um conversion is exact in
// double and mirrored distances match bit for bit; an off-axis radiator on
// the same geometry must break the tie.
TEST(CostModelThermal, MirroredGeometryHasExactlyZeroMismatch) {
  Circuit c("mirror");
  ModuleId a = c.addModule("A", 10 * kUm, 8 * kUm);
  ModuleId b = c.addModule("B", 10 * kUm, 8 * kUm);
  ModuleId r = c.addModule("R", 6 * kUm, 6 * kUm);
  ModuleId s = c.addModule("S", 4 * kUm, 4 * kUm);
  SymmetryGroup g;
  g.name = "G";
  g.pairs = {{a, b}};
  c.addSymmetryGroup(std::move(g));
  c.module(r).powerW = 0.5;
  c.module(s).powerW = 0.25;

  Placement p(c.moduleCount());
  p[a] = {0, 0, 10 * kUm, 8 * kUm};          // centers at x = 5, 35 um:
  p[b] = {30 * kUm, 0, 10 * kUm, 8 * kUm};   // mirror axis x = 20 um
  p[r] = {17 * kUm, 10 * kUm, 6 * kUm, 6 * kUm};   // center x = 20 um: ON axis
  p[s] = {18 * kUm, 20 * kUm, 4 * kUm, 4 * kUm};   // center x = 20 um: ON axis

  CostModel model(c, makeObjective(c, {.wirelength = 0.25, .thermal = 1.0}));
  EXPECT_EQ(model.thermalMismatch(p), 0);
  EXPECT_EQ(fieldThermalMismatch(c, p), 0);
  CostBreakdown bd = model.evaluateBreakdown(p);
  EXPECT_EQ(bd.thermalMismatch, 0);

  // Nudge one radiator off the axis: the pair must see a nonzero mismatch.
  p[s] = {10 * kUm, 20 * kUm, 4 * kUm, 4 * kUm};
  EXPECT_GT(model.thermalMismatch(p), 0);
  EXPECT_EQ(model.thermalMismatch(p), fieldThermalMismatch(c, p));
}

// The hinted propose (moved-module list + attain-count bounding box) must
// agree with scratch over long random single/multi-module displacement
// sequences — including the shrink case where a boundary module moves
// inward and forces a rescan.
TEST(CostModel, HintedProposeEqualsScratchUnderDisplacements) {
  Circuit c = makeSynthetic(
      {.name = "hint", .moduleCount = 60, .seed = 31, .symmetricFraction = 0.5});
  CostModel model(c, makeObjective(c, {.wirelength = 0.25,
                                       .symmetry = 2.0,
                                       .proximity = 2.0}));
  const std::size_t n = c.moduleCount();
  std::vector<Coord> w, h;
  moduleDims(c, std::vector<bool>(n, false), &w, &h);
  Rng rng(37);
  Placement p = packBStar(BStarTree::random(n, rng), w, h);
  model.reset(p);

  for (std::size_t i = 0; i < 4000; ++i) {
    std::vector<std::size_t> moved;
    std::size_t k = 1 + rng.index(3);
    for (std::size_t j = 0; j < k; ++j) {
      std::size_t m = rng.index(n);
      moved.push_back(m);
      // Large displacements guarantee boundary modules regularly move
      // inward/outward, exercising both bbox update paths.
      Coord dx = (static_cast<Coord>(rng.index(21)) - 10) * kUm;
      Coord dy = (static_cast<Coord>(rng.index(21)) - 10) * kUm;
      p[m] = p[m].translated(dx, dy);
    }
    if (rng.uniform() < 0.3) moved.push_back(moved.front());  // duplicate hint
    double incremental = model.propose(p, moved);
    EXPECT_EQ(incremental, model.evaluate(p)) << "step " << i;
    model.commit();
    CostBreakdown fresh = model.evaluateBreakdown(p);
    ASSERT_EQ(model.committed().boundingBox, fresh.boundingBox) << "step " << i;
    ASSERT_EQ(model.committed().hpwl, fresh.hpwl) << "step " << i;
  }
}

TEST(CostModel, RollbackRestoresTheCommittedState) {
  Circuit c = makeMillerOpAmp();
  CostModel model(c, makeObjective(c, {.wirelength = 0.25, .symmetry = 2.0}));
  const std::size_t n = c.moduleCount();
  std::vector<Coord> w, h;
  moduleDims(c, std::vector<bool>(n, false), &w, &h);
  Rng rng(41);
  Placement p = packBStar(BStarTree::random(n, rng), w, h);
  double committed = model.reset(p);

  Placement q = p;
  q[0] = q[0].translated(5 * kUm, 3 * kUm);
  double proposed = model.propose(q);
  EXPECT_NE(proposed, committed);
  model.rollback();
  EXPECT_EQ(model.committedCost(), committed);
  // A re-propose of the identical placement must see zero moved modules and
  // reproduce the committed cost exactly.
  EXPECT_EQ(model.propose(p), committed);
  model.rollback();
}

TEST(CostModel, InvalidateFallsBackToScratchAndReseeds) {
  Circuit c = makeMillerOpAmp();
  CostModel model(c, makeObjective(c, {.wirelength = 0.25, .symmetry = 2.0}));
  const std::size_t n = c.moduleCount();
  std::vector<Coord> w, h;
  moduleDims(c, std::vector<bool>(n, false), &w, &h);
  Rng rng(43);
  Placement p = packBStar(BStarTree::random(n, rng), w, h);
  model.reset(p);

  // Simulate the annealer accepting an infeasible (undecodable) state.
  model.invalidate();
  EXPECT_FALSE(model.seeded());
  Placement q = packBStar(BStarTree::random(n, rng), w, h);
  EXPECT_EQ(model.propose(q), model.evaluate(q));
  model.commit();
  EXPECT_TRUE(model.seeded());
  EXPECT_EQ(model.committedCost(), model.evaluate(q));
}

// The incremental evaluator must retrace the scratch-cost trajectory of the
// annealing loop bit for bit: same costs, same RNG draws, same acceptances,
// same best state.  This is the refactor's engine-level identity argument
// in miniature (tests/io_golden_test.cpp pins the full-engine numbers).
TEST(CostModel, AnnealTrajectoryMatchesScratchBitForBit) {
  Circuit c = makeSynthetic(
      {.name = "traj", .moduleCount = 24, .seed = 47, .symmetricFraction = 0.5});
  const std::size_t n = c.moduleCount();
  Objective obj =
      makeObjective(c, {.wirelength = 0.25, .symmetry = 2.0, .proximity = 2.0});

  auto decode = [&](const BStarTree& t) -> std::optional<Placement> {
    std::vector<Coord> w, h;
    moduleDims(c, std::vector<bool>(n, false), &w, &h);
    return packBStar(t, w, h);
  };
  auto move = [](const BStarTree& t, Rng& rng) {
    BStarTree next = t;
    next.perturb(rng);
    return next;
  };
  AnnealOptions opt;
  opt.maxSweeps = 60;
  opt.seed = 11;
  opt.sizeHint = n;

  CostModel scratchModel(c, obj);
  auto cost = [&](const BStarTree& t) { return scratchModel.evaluate(*decode(t)); };
  auto scratch = annealWithRestarts(BStarTree(n), cost, move, opt);

  CostModel model(c, obj);
  using Eval = detail::IncrementalEval<CostModel, decltype(decode)>;
  detail::AnnealDriver<BStarTree, Eval, decltype(move)&> driver(
      BStarTree(n), Eval{model, decode}, move, opt);
  auto incremental = driver.finalize();

  EXPECT_EQ(scratch.bestCost, incremental.bestCost);
  EXPECT_EQ(scratch.movesTried, incremental.movesTried);
  EXPECT_EQ(scratch.movesAccepted, incremental.movesAccepted);
  EXPECT_EQ(scratch.sweeps, incremental.sweeps);
  Placement a = *decode(scratch.best);
  Placement b = *decode(incremental.best);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t m = 0; m < a.size(); ++m) EXPECT_EQ(a[m], b[m]);
}

// Engine-level determinism of the newly plumbed objective weights: a
// non-default weight set still produces bit-identical repeat runs on every
// backend, and the weights demonstrably steer the flat penalty backend.
TEST(CostModel, EngineWeightPlumbingIsDeterministic) {
  Circuit c = makeMillerOpAmp();
  EngineOptions opt;
  opt.maxSweeps = 40;
  opt.seed = 3;
  opt.wirelengthWeight = 0.5;
  opt.symmetryWeight = 1.25;
  opt.proximityWeight = 3.0;
  for (EngineBackend backend : allBackends()) {
    auto engine = makeEngine(backend);
    EngineResult a = engine->place(c, opt);
    EngineResult b = engine->place(c, opt);
    EXPECT_EQ(a.cost, b.cost) << engine->name();
    ASSERT_EQ(a.placement.size(), b.placement.size()) << engine->name();
    for (std::size_t m = 0; m < a.placement.size(); ++m) {
      EXPECT_EQ(a.placement[m], b.placement[m]) << engine->name();
    }
  }
}

// Concurrency contract (run under TSan by ci.sh): concurrent models over
// one shared const circuit are independent — same per-thread results as a
// sequential run, no data races.
TEST(CostModel, ConcurrentModelsOverSharedCircuitAreIndependent) {
  Circuit c = makeSynthetic(
      {.name = "mt", .moduleCount = 30, .seed = 53, .symmetricFraction = 0.5});
  const std::size_t n = c.moduleCount();
  Objective obj =
      makeObjective(c, {.wirelength = 0.25, .symmetry = 2.0, .proximity = 2.0});

  auto runOne = [&](std::uint64_t seed) {
    CostModel model(c, obj);
    std::vector<Coord> w, h;
    moduleDims(c, std::vector<bool>(n, false), &w, &h);
    Rng rng(seed);
    Placement p = packBStar(BStarTree::random(n, rng), w, h);
    model.reset(p);
    for (std::size_t i = 0; i < 300; ++i) {
      std::size_t m = rng.index(n);
      p[m] = p[m].translated((static_cast<Coord>(rng.index(5)) - 2) * kUm,
                             (static_cast<Coord>(rng.index(5)) - 2) * kUm);
      std::size_t moved[1] = {m};
      model.propose(p, moved);
      model.commit();
    }
    return model.committedCost();
  };

  double sequential[4];
  for (std::uint64_t t = 0; t < 4; ++t) sequential[t] = runOne(100 + t);

  double parallel[4];
  std::vector<std::thread> threads;
  for (std::uint64_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] { parallel[t] = runOne(100 + t); });
  }
  for (std::thread& th : threads) th.join();
  for (std::uint64_t t = 0; t < 4; ++t) EXPECT_EQ(sequential[t], parallel[t]);
}

}  // namespace
}  // namespace als
