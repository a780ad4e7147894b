#include "anneal/annealer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <optional>

namespace als {
namespace {

/// Minimal cost model over states that "decode" to themselves (the shape
/// cost/cost_model.h implements for placements): a quadratic bowl, with
/// states past x = 12 undecodable.
struct ToyModel {
  static double costOf(double x) { return (x - 3.0) * (x - 3.0); }
  double evaluate(double x) const { return costOf(x); }
  double infeasibleCost() const { return 1e3; }
  static std::optional<double> decode(double x) {
    if (x > 12.0) return std::nullopt;
    return x;
  }
  /// The same cost written directly on the state.
  static double direct(double x) { return x > 12.0 ? 1e3 : costOf(x); }
};

/// Drives the annealing loop through `DecodedCost` over `ToyModel`,
/// `restarts` as in the driver.
template <class MoveF>
AnnealResult<double> annealDecoded(double init, MoveF& move,
                                   const AnnealOptions& opt, bool restarts) {
  ToyModel model;
  auto decode = &ToyModel::decode;
  using Cost = detail::DecodedCost<ToyModel, decltype(decode)>;
  detail::AnnealDriver<double, Cost, MoveF&> driver(
      init, Cost{model, decode}, move, opt, 1.0, restarts);
  return driver.finalize();
}

TEST(Annealer, MinimizesQuadratic) {
  AnnealOptions opt;
  opt.seed = 1;
  opt.maxSweeps = 200;
  opt.sizeHint = 4;
  auto result = anneal(
      10.0, [](double x) { return (x - 3.0) * (x - 3.0); },
      [](double& x, Rng& rng) { x += rng.normal(0.0, 0.5); }, opt);
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
      -1.0, cost, [](double& x, Rng& rng) { x += rng.normal(0.0, 0.7); },
      opt);
  EXPECT_NEAR(result.best, 2.0, 0.3);
}

TEST(Annealer, DeterministicForSeed) {
  auto cost = [](double x) { return std::abs(x); };
  auto move = [](double& x, Rng& rng) { x += rng.uniform(-1.0, 1.0); };
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
  auto move = [](int& x, Rng& rng) {
    x += static_cast<int>(rng.uniformInt(-2, 2));
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
  auto move = [](double& x, Rng& rng) { x = x + rng.uniform() - 0.5; };
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
  auto move = [](double& x, Rng& rng) { x = x + rng.uniform() - 0.5; };
  CancelToken deadline;
  deadline.setDeadlineAfter(0.2);
  AnnealOptions opt;
  opt.seed = 5;
  opt.maxSweeps = 0;         // no sweep cap ...
  opt.cancel = &deadline;    // ... so the deadline must stop the run
  opt.freezeRatio = 0.0;     // would run forever without the deadline
  Stopwatch clock;
  auto result = anneal(0.0, cost, move, opt);
  EXPECT_LT(clock.seconds(), 2.0);
  EXPECT_GT(result.sweeps, 0u);
  EXPECT_EQ(deadline.reason(), StopReason::Deadline);
}

TEST(Annealer, UncappedRestartsRunUntilAnArmedDeadline) {
  // One schedule freezes after ~226 sweeps.  Uncapped and without a
  // deadline that single run is the answer; under a deadline the leftover
  // wall clock funds restarts until the deadline stops the token.
  auto cost = [](double x) { return std::abs(x); };
  auto move = [](double& x, Rng& rng) { x += rng.uniform(-1.0, 1.0); };
  AnnealOptions opt;
  opt.seed = 6;
  opt.maxSweeps = 0;
  auto single = annealWithRestarts(5.0, cost, move, opt);

  Stopwatch clock;
  CancelToken deadline;
  deadline.setDeadlineAfter(0.1);
  opt.cancel = &deadline;
  auto timed = annealWithRestarts(5.0, cost, move, opt);
  EXPECT_GE(clock.seconds(), 0.1);
  EXPECT_GT(timed.sweeps, single.sweeps);
  EXPECT_EQ(deadline.reason(), StopReason::Deadline);
}

TEST(Annealer, RestartsConsumeTheTotalSweepBudgetExactly) {
  auto cost = [](double x) { return std::abs(x); };
  auto move = [](double& x, Rng& rng) { x += rng.uniform(-1.0, 1.0); };
  AnnealOptions opt;
  opt.seed = 6;
  opt.maxSweeps = 500;  // a single schedule freezes after ~226 sweeps
  auto result = annealWithRestarts(5.0, cost, move, opt);
  EXPECT_EQ(result.sweeps, 500u);
}

TEST(Annealer, RestartsAreDeterministicAndDoNotMutateOptions) {
  auto cost = [](double x) { return std::abs(x); };
  auto move = [](double& x, Rng& rng) { x += rng.uniform(-1.0, 1.0); };
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

TEST(Annealer, DecodedCostRetracesTheDirectCostTrajectory) {
  // Costing through a decoder is a pure evaluation-strategy swap: same RNG
  // stream, same costs (undecodable states included), same acceptances —
  // bit-identical results to the direct cost functor.
  auto move = [](double& x, Rng& rng) { x += rng.normal(0.0, 0.5); };
  AnnealOptions opt;
  opt.seed = 21;
  opt.maxSweeps = 120;
  opt.sizeHint = 4;

  auto direct = anneal(11.0, &ToyModel::direct, move, opt);
  auto decoded = annealDecoded(11.0, move, opt, /*restarts=*/false);

  EXPECT_EQ(direct.best, decoded.best);
  EXPECT_EQ(direct.bestCost, decoded.bestCost);
  EXPECT_EQ(direct.movesTried, decoded.movesTried);
  EXPECT_EQ(direct.movesAccepted, decoded.movesAccepted);
  EXPECT_EQ(direct.sweeps, decoded.sweeps);
}

TEST(Annealer, DecodedCostRestartsMatchDirectRestarts) {
  auto move = [](double& x, Rng& rng) { x += rng.uniform(-1.0, 1.0); };
  AnnealOptions opt;
  opt.seed = 23;
  opt.maxSweeps = 400;  // enough for several freeze-terminated restarts
  auto direct = annealWithRestarts(11.0, &ToyModel::direct, move, opt);
  auto decoded = annealDecoded(11.0, move, opt, /*restarts=*/true);
  EXPECT_EQ(direct.best, decoded.best);
  EXPECT_EQ(direct.bestCost, decoded.bestCost);
  EXPECT_EQ(direct.movesTried, decoded.movesTried);
  EXPECT_EQ(direct.sweeps, decoded.sweeps);
}

TEST(Annealer, RestartBeatsOrMatchesSingleRunWithSameTotalBudget) {
  // The restart driver returns the best of its rounds, so it can never be
  // worse than its own first round (which is a plain `anneal` call with the
  // full budget capped by freezing).
  auto cost = [](double x) {
    return std::abs(x - 4.0) + 2.0 * std::sin(3.0 * x);
  };
  auto move = [](double& x, Rng& rng) { x += rng.normal(0.0, 0.4); };
  AnnealOptions opt;
  opt.seed = 8;
  opt.maxSweeps = 600;
  auto single = anneal(0.0, cost, move, opt);
  auto restarted = annealWithRestarts(0.0, cost, move, opt);
  EXPECT_LE(restarted.bestCost, single.bestCost + 1e-12);
}

}  // namespace
}  // namespace als
