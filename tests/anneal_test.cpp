#include "anneal/annealer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <optional>

namespace als {
namespace {

/// Minimal incremental-protocol model (the shape cost/cost_model.h
/// implements for placements): tracks a committed cost and counts protocol
/// calls so the test can audit the annealer's driving pattern.
struct ToyModel {
  double committed = 0.0;
  double pending = 0.0;
  int commits = 0;
  int rollbacks = 0;
  int resets = 0;

  static double costOf(double x) { return (x - 3.0) * (x - 3.0); }
  double infeasibleCost() const { return 1e30; }
  double reset(double x) {
    ++resets;
    committed = costOf(x);
    return committed;
  }
  double propose(double x) {
    pending = costOf(x);
    return pending;
  }
  void commit() {
    ++commits;
    committed = pending;
  }
  void rollback() { ++rollbacks; }
  void invalidate() {}
};

/// Drives the annealing loop with the incremental-protocol evaluator over
/// `model`: states decode to themselves, `restarts` as in the driver.
template <class MoveF>
AnnealResult<double> annealIncremental(ToyModel& model, double init,
                                       MoveF& move, const AnnealOptions& opt,
                                       bool restarts) {
  auto decode = [](double x) { return std::optional<double>(x); };
  using Eval = detail::IncrementalEval<ToyModel, decltype(decode)>;
  detail::AnnealDriver<double, Eval, MoveF&> driver(
      init, Eval{model, decode}, move, opt, 1.0, restarts);
  return driver.finalize();
}

TEST(Annealer, MinimizesQuadratic) {
  AnnealOptions opt;
  opt.seed = 1;
  opt.maxSweeps = 200;
  opt.sizeHint = 4;
  auto result = anneal(
      10.0, [](double x) { return (x - 3.0) * (x - 3.0); },
      [](double x, Rng& rng) { return x + rng.normal(0.0, 0.5); }, opt);
  EXPECT_NEAR(result.best, 3.0, 0.2);
  EXPECT_GT(result.movesTried, 100u);
  EXPECT_GT(result.movesAccepted, 0u);
}

TEST(Annealer, EscapesLocalMinimum) {
  // Double well: local minimum at x = -1 (value 0.5), global at x = 2 (0).
  auto cost = [](double x) {
    double a = (x + 1.0) * (x + 1.0) + 0.5;
    double b = (x - 2.0) * (x - 2.0);
    return std::min(a, b);
  };
  AnnealOptions opt;
  opt.seed = 2;
  opt.maxSweeps = 200;
  auto result = anneal(
      -1.0, cost, [](double x, Rng& rng) { return x + rng.normal(0.0, 0.7); }, opt);
  EXPECT_NEAR(result.best, 2.0, 0.3);
}

TEST(Annealer, DeterministicForSeed) {
  auto cost = [](double x) { return std::abs(x); };
  auto move = [](double x, Rng& rng) { return x + rng.uniform(-1.0, 1.0); };
  AnnealOptions opt;
  opt.seed = 3;
  opt.maxSweeps = 100;
  auto a = anneal(5.0, cost, move, opt);
  auto b = anneal(5.0, cost, move, opt);
  EXPECT_DOUBLE_EQ(a.best, b.best);
  EXPECT_EQ(a.movesTried, b.movesTried);
  EXPECT_EQ(a.sweeps, b.sweeps);
}

TEST(Annealer, BestNeverWorseThanInitial) {
  auto cost = [](int x) { return static_cast<double>(x * x); };
  auto move = [](int x, Rng& rng) {
    return x + static_cast<int>(rng.uniformInt(-2, 2));
  };
  AnnealOptions opt;
  opt.seed = 4;
  opt.maxSweeps = 50;
  auto result = anneal(7, cost, move, opt);
  EXPECT_LE(result.bestCost, 49.0);
}

TEST(Annealer, SweepBudgetIsThePrimaryStoppingRule) {
  // With freezing disabled the sweep budget is the only active rule; the
  // run must execute exactly `maxSweeps` temperature steps.
  auto cost = [](double x) { return x; };
  auto move = [](double x, Rng& rng) { return x + rng.uniform() - 0.5; };
  AnnealOptions opt;
  opt.seed = 5;
  opt.maxSweeps = 77;
  opt.freezeRatio = 0.0;
  opt.movesPerTemp = 4;
  auto result = anneal(0.0, cost, move, opt);
  EXPECT_EQ(result.sweeps, 77u);
  EXPECT_EQ(result.movesTried, 77u * 4u);
}

TEST(Annealer, RespectsSecondaryTimeLimit) {
  auto cost = [](double x) { return x; };
  auto move = [](double x, Rng& rng) { return x + rng.uniform() - 0.5; };
  AnnealOptions opt;
  opt.seed = 5;
  opt.maxSweeps = 0;      // no sweep cap ...
  opt.timeLimitSec = 0.2; // ... so the wall-clock cap must stop the run
  opt.freezeRatio = 0.0;  // would run forever without the time limit
  Stopwatch clock;
  anneal(0.0, cost, move, opt);
  EXPECT_LT(clock.seconds(), 2.0);
}

TEST(Annealer, RestartsConsumeTheTotalSweepBudgetExactly) {
  auto cost = [](double x) { return std::abs(x); };
  auto move = [](double x, Rng& rng) { return x + rng.uniform(-1.0, 1.0); };
  AnnealOptions opt;
  opt.seed = 6;
  opt.maxSweeps = 500;  // a single schedule freezes after ~226 sweeps
  auto result = annealWithRestarts(5.0, cost, move, opt);
  EXPECT_EQ(result.sweeps, 500u);
}

TEST(Annealer, RestartsAreDeterministicAndDoNotMutateOptions) {
  auto cost = [](double x) { return std::abs(x); };
  auto move = [](double x, Rng& rng) { return x + rng.uniform(-1.0, 1.0); };
  const AnnealOptions opt{.maxSweeps = 300, .seed = 7};
  auto a = annealWithRestarts(5.0, cost, move, opt);
  auto b = annealWithRestarts(5.0, cost, move, opt);
  EXPECT_DOUBLE_EQ(a.best, b.best);
  EXPECT_DOUBLE_EQ(a.bestCost, b.bestCost);
  EXPECT_EQ(a.movesTried, b.movesTried);
  EXPECT_EQ(a.sweeps, b.sweeps);
  EXPECT_EQ(opt.maxSweeps, 300u);
  EXPECT_EQ(opt.seed, 7u);
}

TEST(Annealer, IncrementalOverloadRetracesTheScratchTrajectory) {
  // The incremental-protocol evaluator must be a pure evaluation-strategy
  // swap: same RNG stream, same costs, same acceptances — bit-identical
  // results to the scratch-cost `anneal`.
  auto move = [](double x, Rng& rng) { return x + rng.normal(0.0, 0.5); };
  AnnealOptions opt;
  opt.seed = 21;
  opt.maxSweeps = 120;
  opt.sizeHint = 4;

  auto scratch = anneal(10.0, &ToyModel::costOf, move, opt);
  ToyModel model;
  auto incremental =
      annealIncremental(model, 10.0, move, opt, /*restarts=*/false);

  EXPECT_EQ(scratch.best, incremental.best);
  EXPECT_EQ(scratch.bestCost, incremental.bestCost);
  EXPECT_EQ(scratch.movesTried, incremental.movesTried);
  EXPECT_EQ(scratch.movesAccepted, incremental.movesAccepted);
  EXPECT_EQ(scratch.sweeps, incremental.sweeps);

  // Protocol audit: the 50-move calibration walk commits every probe, the
  // Metropolis loop commits exactly the accepted moves and rolls back the
  // rest; the model is seeded once at the start and re-based once after
  // calibration.
  EXPECT_EQ(model.commits,
            50 + static_cast<int>(incremental.movesAccepted));
  EXPECT_EQ(model.rollbacks, static_cast<int>(incremental.movesTried -
                                              incremental.movesAccepted));
  EXPECT_EQ(model.resets, 2);
}

TEST(Annealer, IncrementalRestartsMatchScratchRestarts) {
  auto move = [](double x, Rng& rng) { return x + rng.uniform(-1.0, 1.0); };
  AnnealOptions opt;
  opt.seed = 23;
  opt.maxSweeps = 400;  // enough for several freeze-terminated restarts
  auto scratch = annealWithRestarts(5.0, &ToyModel::costOf, move, opt);
  ToyModel model;
  auto incremental =
      annealIncremental(model, 5.0, move, opt, /*restarts=*/true);
  EXPECT_EQ(scratch.best, incremental.best);
  EXPECT_EQ(scratch.bestCost, incremental.bestCost);
  EXPECT_EQ(scratch.movesTried, incremental.movesTried);
  EXPECT_EQ(scratch.sweeps, incremental.sweeps);
}

TEST(Annealer, RestartBeatsOrMatchesSingleRunWithSameTotalBudget) {
  // The restart driver returns the best of its rounds, so it can never be
  // worse than its own first round (which is a plain `anneal` call with the
  // full budget capped by freezing).
  auto cost = [](double x) {
    return std::abs(x - 4.0) + 2.0 * std::sin(3.0 * x);
  };
  auto move = [](double x, Rng& rng) { return x + rng.normal(0.0, 0.4); };
  AnnealOptions opt;
  opt.seed = 8;
  opt.maxSweeps = 600;
  auto single = anneal(0.0, cost, move, opt);
  auto restarted = annealWithRestarts(0.0, cost, move, opt);
  EXPECT_LE(restarted.bestCost, single.bestCost + 1e-12);
}

}  // namespace
}  // namespace als
