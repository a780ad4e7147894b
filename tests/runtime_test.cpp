// Runtime-layer tests: the deterministic ThreadPool and the restart
// portfolio's concurrency contract — for a fixed (seed, budget, restarts)
// configuration, `numThreads = 1` and `numThreads = 8` must produce
// bit-identical EngineResults on every backend.  ci.sh runs this suite
// under ASan/UBSan (twice) and TSan, so the pool's synchronization and the
// backends' statelessness are both exercised under instrumentation.
#include "runtime/portfolio.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "anneal/annealer.h"
#include "engine/replica_session.h"
#include "io/corpus.h"
#include "netlist/generators.h"
#include "runtime/tempering.h"
#include "runtime/thread_pool.h"
#include "util/rng.h"
#include "util/stopwatch.h"

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

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.threadCount(), 4u);
  std::vector<std::atomic<int>> hits(512);
  pool.parallelFor(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
  // The pool is reusable: a second fork-join sees fresh state.
  pool.parallelFor(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 2) << "index " << i;
  }
}

TEST(ThreadPool, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.threadCount(), 1u);
  std::size_t sum = 0;  // no synchronization: everything runs on this thread
  pool.parallelFor(100, [&](std::size_t i) { sum += i; });
  EXPECT_EQ(sum, 4950u);
}

TEST(ThreadPool, ZeroCountIsANoop) {
  ThreadPool pool(3);
  pool.parallelFor(0, [&](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPool, PropagatesTheSmallestFailingIndex) {
  ThreadPool pool(4);
  auto fail = [](std::size_t i) {
    if (i == 97 || i == 11 || i == 200) {
      throw std::runtime_error(std::to_string(i));
    }
  };
  try {
    pool.parallelFor(256, fail);
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "11");
  }
  // The pool survives a failed job.
  std::atomic<int> count{0};
  pool.parallelFor(32, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 32);
}

TEST(RestartPlan, SplitsSeedsAndBudgetsDeterministically) {
  EngineOptions opt;
  opt.seed = 5;
  opt.maxSweeps = 10;
  opt.numRestarts = 4;
  std::vector<RestartSlice> plan = makeRestartPlan(opt);
  ASSERT_EQ(plan.size(), 4u);
  std::size_t total = 0;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    EXPECT_EQ(plan[i].index, i);
    EXPECT_EQ(plan[i].seed, portfolioSeedAt(5, i));
    total += plan[i].maxSweeps;
    // Remainder-first split: slices differ by at most one sweep.
    EXPECT_GE(plan[i].maxSweeps, 10u / 4u);
    EXPECT_LE(plan[i].maxSweeps, 10u / 4u + 1u);
  }
  EXPECT_EQ(total, 10u);
  // Slice 0 anneals from the base seed itself; later slices are mixed and
  // their seeds (and LCG successor streams) must not collide.
  EXPECT_EQ(plan[0].seed, 5u);
  for (std::size_t i = 1; i < plan.size(); ++i) {
    EXPECT_NE(plan[i].seed, plan[i - 1].seed);
    EXPECT_NE(plan[i].seed, nextRestartSeed(plan[i - 1].seed));
  }
  // numRestarts == 0 degrades to a single full-budget restart.
  opt.numRestarts = 0;
  plan = makeRestartPlan(opt);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].seed, 5u);
  EXPECT_EQ(plan[0].maxSweeps, 10u);
}

TEST(RestartPlan, CapsSliceCountAtTheSweepBudget) {
  // A zero slice budget would mean "uncapped", so more restarts than sweeps
  // must degrade to one-sweep slices, never to freeze-terminated runs.
  EngineOptions opt;
  opt.seed = 3;
  opt.maxSweeps = 4;
  opt.numRestarts = 8;
  std::vector<RestartSlice> plan = makeRestartPlan(opt);
  ASSERT_EQ(plan.size(), 4u);
  for (const RestartSlice& slice : plan) EXPECT_EQ(slice.maxSweeps, 1u);
  // An uncapped portfolio keeps all its restarts (each freeze-terminated).
  opt.maxSweeps = 0;
  plan = makeRestartPlan(opt);
  ASSERT_EQ(plan.size(), 8u);
  for (const RestartSlice& slice : plan) EXPECT_EQ(slice.maxSweeps, 0u);
}

TEST(Portfolio, OversizedRestartCountStillHonorsTheBudgetExactly) {
  Circuit c = makeFig1Example();
  EngineOptions opt;
  opt.maxSweeps = 4;
  opt.numRestarts = 8;
  opt.seed = 13;
  opt.numThreads = 2;
  PortfolioRunner runner;
  EngineResult r = runner.run(c, EngineBackend::SeqPair, opt);
  EXPECT_EQ(r.sweeps, 4u);
  EXPECT_EQ(r.restartsRun, 4u);
}

// `timeLimitSec` is a per-slice cap: each slice's session arms its own
// deadline when built, so with one thread the second slice still anneals
// after the first used up its cap, and the plan takes about two caps.
TEST(Portfolio, TimeLimitCapsEachSlice) {
  Circuit c = makeTableICircuit(TableICircuit::ComparatorV2);
  EngineOptions opt;
  opt.maxSweeps = 0;  // uncapped: only the deadlines stop the slices
  opt.timeLimitSec = 0.15;
  opt.numRestarts = 2;
  opt.numThreads = 1;
  opt.seed = 3;
  const EngineBackend backend = EngineBackend::SeqPair;
  Stopwatch clock;
  PlanOutcome out = executePlan(nullptr, {.circuits = {&c, 1},
                                          .backends = {&backend, 1},
                                          .options = opt});
  const double seconds = clock.seconds();
  ASSERT_EQ(out.cells.size(), 2u);
  for (const TemperingReplica& cell : out.cells) {
    EXPECT_GT(cell.sweeps, 0u) << "slice " << cell.seed;
  }
  EXPECT_GE(seconds, 2 * opt.timeLimitSec);
  EXPECT_LT(seconds, 2 * opt.timeLimitSec + 2.0);
}

// The session's deadline token links to the caller's: cancelling the caller
// stops a run whose own cap is far away.
TEST(Portfolio, CallerCancelStopsATimedRun) {
  Circuit c = makeTableICircuit(TableICircuit::ComparatorV2);
  CancelToken caller;
  EngineOptions opt;
  opt.maxSweeps = 0;
  opt.timeLimitSec = 30.0;
  opt.numRestarts = 2;
  opt.numThreads = 1;
  opt.cancel = &caller;
  std::thread canceller([&caller] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    caller.cancel();
  });
  Stopwatch clock;
  EngineResult r = PortfolioRunner().run(c, EngineBackend::SeqPair, opt);
  canceller.join();
  EXPECT_LT(clock.seconds(), 10.0);
  EXPECT_FALSE(r.placement.empty()) << "a stopped run returns best-so-far";
  EXPECT_EQ(caller.reason(), StopReason::Cancelled);
}

TEST(Portfolio, RaceRejectsAnEmptyBackendSpan) {
  Circuit c = makeFig1Example();
  PortfolioRunner runner;
  EXPECT_THROW(runner.race(c, {}, EngineOptions{}), std::invalid_argument);
}

// The tentpole contract: every backend's portfolio is bit-identical between
// a 1-thread and an 8-thread run of the same plan.
TEST(Portfolio, ThreadCountDoesNotChangeAnyBackendsResult) {
  Circuit c = makeTableICircuit(TableICircuit::ComparatorV2);
  EngineOptions opt;
  opt.maxSweeps = 120;
  opt.numRestarts = 4;
  opt.seed = 17;
  PortfolioRunner runner;
  for (EngineBackend backend : allBackends()) {
    opt.numThreads = 1;
    EngineResult serial = runner.run(c, backend, opt);
    opt.numThreads = 8;
    EngineResult parallel = runner.run(c, backend, opt);
    expectBitIdentical(serial, parallel, backendName(backend));
    EXPECT_EQ(serial.restartsRun, 4u) << backendName(backend);
    // Slice budgets are exhausted exactly, so aggregates hit the total.
    EXPECT_EQ(serial.sweeps, 120u) << backendName(backend);
    EXPECT_LT(serial.bestRestart, 4u) << backendName(backend);
    EXPECT_EQ(serial.bestSeed, portfolioSeedAt(17, serial.bestRestart))
        << backendName(backend);
  }
}

TEST(Portfolio, SingleRestartMatchesAPlainEngineCall) {
  Circuit c = makeTableICircuit(TableICircuit::MillerV2);
  EngineOptions opt;
  opt.maxSweeps = 90;
  opt.seed = 2;
  opt.numRestarts = 1;
  opt.numThreads = 4;
  PortfolioRunner runner;
  for (EngineBackend backend : allBackends()) {
    EngineResult direct = makeReplicaSession(backend, c, opt)->finish();
    EngineResult portfolio = runner.run(c, backend, opt);
    // seconds is wall clock and may differ; everything else is identical.
    expectBitIdentical(direct, portfolio, backendName(backend));
  }
}

TEST(Portfolio, RaceIsThreadCountInvariantAndOrderedByCostSeedBackend) {
  Circuit c = makeTableICircuit(TableICircuit::ComparatorV2);
  EngineOptions opt;
  opt.maxSweeps = 120;
  opt.numRestarts = 2;
  opt.seed = 23;
  PortfolioRunner runner;
  opt.numThreads = 1;
  PortfolioRunner::RaceOutcome serial = runner.race(c, allBackends(), opt);
  opt.numThreads = 8;
  PortfolioRunner::RaceOutcome parallel = runner.race(c, allBackends(), opt);
  EXPECT_EQ(serial.backend, parallel.backend);
  expectBitIdentical(serial.result, parallel.result, "race");
  // The winner is the (cost, seed, backend) minimum of the per-backend runs.
  EngineResult winner = runner.run(c, serial.backend, opt);
  EXPECT_EQ(winner.cost, serial.result.cost);
  for (EngineBackend backend : allBackends()) {
    EXPECT_LE(serial.result.cost, runner.run(c, backend, opt).cost)
        << backendName(backend);
  }
}

TEST(Portfolio, SharedPoolModeMatchesPoolPerRun) {
  Circuit c = makeTableICircuit(TableICircuit::MillerV2);
  EngineOptions opt;
  opt.maxSweeps = 80;
  opt.numRestarts = 3;
  opt.seed = 7;
  opt.numThreads = 5;
  ThreadPool pool(3);  // deliberately a different size than numThreads
  PortfolioRunner shared(&pool);
  PortfolioRunner perRun;
  EngineResult a = shared.run(c, EngineBackend::SeqPair, opt);
  EngineResult b = perRun.run(c, EngineBackend::SeqPair, opt);
  expectBitIdentical(a, b, "shared pool");
}

TEST(BatchPlacer, MatchesPerCircuitPortfolios) {
  std::vector<Circuit> circuits;
  circuits.push_back(makeTableICircuit(TableICircuit::ComparatorV2));
  circuits.push_back(makeTableICircuit(TableICircuit::MillerV2));
  circuits.push_back(makeFig1Example());
  EngineOptions opt;
  opt.maxSweeps = 60;
  opt.numRestarts = 2;
  opt.seed = 41;
  opt.numThreads = 8;
  BatchPlacer batch;
  std::vector<EngineResult> results =
      batch.placeAll(circuits, EngineBackend::SeqPair, opt);
  ASSERT_EQ(results.size(), circuits.size());
  PortfolioRunner runner;
  for (std::size_t i = 0; i < circuits.size(); ++i) {
    EngineResult expected = runner.run(circuits[i], EngineBackend::SeqPair, opt);
    expectBitIdentical(expected, results[i],
                       "batch circuit " + std::to_string(i));
  }
}

// A tempering batch runs one ladder per circuit through the same executor
// as a lone tempering run, so each circuit's result equals its own
// TemperingRunner::run — at any thread count (seconds aside: the batch
// reports summed annealing time).
TEST(BatchPlacer, TemperingMatchesPerCircuitTemperingRuns) {
  std::vector<Circuit> circuits;
  circuits.push_back(makeTableICircuit(TableICircuit::ComparatorV2));
  circuits.push_back(makeTableICircuit(TableICircuit::MillerV2));
  circuits.push_back(loadCorpusCircuit(CorpusCircuit::Apte));
  EngineOptions opt;
  opt.maxSweeps = 96;
  opt.numRestarts = 4;
  opt.seed = 7;
  opt.tempering = true;
  opt.exchangeInterval = 2;
  opt.ladderRatio = 1.5;
  TemperingRunner tempering;
  BatchPlacer batch;
  for (std::size_t threads : {1u, 8u}) {
    opt.numThreads = threads;
    std::vector<EngineResult> results =
        batch.placeAll(circuits, EngineBackend::SeqPair, opt);
    ASSERT_EQ(results.size(), circuits.size());
    for (std::size_t i = 0; i < circuits.size(); ++i) {
      TemperingOutcome expected =
          tempering.run(circuits[i], EngineBackend::SeqPair, opt);
      EXPECT_GT(expected.exchangesAccepted, 0u) << "circuit " << i;
      expectBitIdentical(expected.result, results[i],
                         "tempering batch circuit " + std::to_string(i) +
                             " at " + std::to_string(threads) + " threads");
    }
  }
}

void expectSameReplicas(const TemperingOutcome& a, const TemperingOutcome& b,
                        std::string_view label) {
  EXPECT_EQ(a.rounds, b.rounds) << label;
  EXPECT_EQ(a.exchangesAccepted, b.exchangesAccepted) << label;
  EXPECT_EQ(a.reseeds, b.reseeds) << label;
  ASSERT_EQ(a.replicas.size(), b.replicas.size()) << label;
  for (std::size_t i = 0; i < a.replicas.size(); ++i) {
    const TemperingReplica& ra = a.replicas[i];
    const TemperingReplica& rb = b.replicas[i];
    EXPECT_EQ(ra.seed, rb.seed) << label << " replica " << i;
    EXPECT_EQ(ra.tempScale, rb.tempScale) << label << " replica " << i;
    EXPECT_EQ(ra.cost, rb.cost) << label << " replica " << i;
    EXPECT_EQ(ra.sweeps, rb.sweeps) << label << " replica " << i;
    EXPECT_EQ(ra.movesTried, rb.movesTried) << label << " replica " << i;
    EXPECT_EQ(ra.exchanges, rb.exchanges) << label << " replica " << i;
    EXPECT_EQ(ra.reseeds, rb.reseeds) << label << " replica " << i;
  }
}

// The tempering tentpole contract: K coupled replicas exchanging every
// `exchangeInterval` sweeps produce bit-identical results — down to every
// per-replica trajectory — at any thread count, on every backend.
TEST(Tempering, ThreadCountDoesNotChangeAnyBackendsResult) {
  Circuit c = makeTableICircuit(TableICircuit::ComparatorV2);
  EngineOptions opt;
  opt.maxSweeps = 120;
  opt.numRestarts = 4;
  opt.seed = 17;
  opt.tempering = true;
  opt.exchangeInterval = 2;
  opt.ladderRatio = 1.5;
  TemperingRunner runner;
  std::size_t totalExchanges = 0;
  for (EngineBackend backend : allBackends()) {
    opt.numThreads = 1;
    TemperingOutcome serial = runner.run(c, backend, opt);
    opt.numThreads = 2;
    TemperingOutcome two = runner.run(c, backend, opt);
    opt.numThreads = 8;
    TemperingOutcome eight = runner.run(c, backend, opt);
    expectBitIdentical(serial.result, two.result, backendName(backend));
    expectBitIdentical(serial.result, eight.result, backendName(backend));
    expectSameReplicas(serial, two, backendName(backend));
    expectSameReplicas(serial, eight, backendName(backend));
    EXPECT_EQ(serial.result.restartsRun, 4u) << backendName(backend);
    EXPECT_EQ(serial.result.sweeps, 120u) << backendName(backend);
    EXPECT_GT(serial.rounds, 0u) << backendName(backend);
    totalExchanges += serial.exchangesAccepted;
  }
  // The ladder actually couples: across four backends and ~15 rounds each,
  // at least one swap must have been accepted.
  EXPECT_GT(totalExchanges, 0u);
}

// With one replica there is no ladder and nothing to exchange, so a
// tempering run chopped into rounds must equal one session run to
// completion bit for bit — this pins the run/pause resumability seam
// itself.
TEST(Tempering, SingleReplicaMatchesAPlainEngineCall) {
  Circuit c = makeTableICircuit(TableICircuit::MillerV2);
  EngineOptions opt;
  opt.maxSweeps = 90;
  opt.seed = 2;
  opt.numRestarts = 1;
  opt.numThreads = 2;
  opt.tempering = true;
  opt.exchangeInterval = 4;  // pauses every 4 sweeps; must not matter
  opt.ladderRatio = 2.0;     // rung 0 always scales by 1.0
  TemperingRunner runner;
  EngineOptions plain = opt;
  plain.tempering = false;
  for (EngineBackend backend : allBackends()) {
    EngineResult direct = makeReplicaSession(backend, c, plain)->finish();
    TemperingOutcome tempered = runner.run(c, backend, opt);
    expectBitIdentical(direct, tempered.result, backendName(backend));
  }
}

// The differential degeneration contract: exchanges disabled and a flat
// ladder reproduce the independent-restart portfolio exactly, bit for bit.
// Both knobs must be neutral — a flat ladder with exchanges on still swaps
// (P = 1 when the temperatures are equal).
TEST(Tempering, DisabledExchangeDegeneratesToIndependentRestarts) {
  EngineOptions opt;
  opt.maxSweeps = 48;
  opt.numRestarts = 3;
  opt.seed = 11;
  opt.numThreads = 4;
  opt.tempering = true;
  opt.exchangeInterval = 0;
  opt.ladderRatio = 1.0;
  EngineOptions plain = opt;
  plain.tempering = false;
  TemperingRunner tempering;
  PortfolioRunner portfolio;
  for (CorpusCircuit which : {CorpusCircuit::Apte, CorpusCircuit::Ami33}) {
    Circuit c = loadCorpusCircuit(which);
    for (EngineBackend backend : allBackends()) {
      TemperingOutcome t = tempering.run(c, backend, opt);
      EngineResult p = portfolio.run(c, backend, plain);
      expectBitIdentical(t.result, p,
                         std::string(corpusName(which)) + "/" +
                             std::string(backendName(backend)));
      EXPECT_EQ(t.exchangesAccepted, 0u);
      EXPECT_EQ(t.reseeds, 0u);
      // options.tempering routes PortfolioRunner through the same path.
      EngineResult routed = portfolio.run(c, backend, opt);
      expectBitIdentical(t.result, routed,
                         std::string(corpusName(which)) + " routed");
    }
  }
  // GSRC scale, cheap budget: the degeneration must hold where the
  // incremental decode machinery (journaled LCS, hinted cost propose) is
  // active.
  Circuit n100 = loadCorpusCircuit(CorpusCircuit::N100);
  opt.maxSweeps = 12;
  plain.maxSweeps = 12;
  for (EngineBackend backend :
       {EngineBackend::FlatBStar, EngineBackend::SeqPair}) {
    TemperingOutcome t = tempering.run(n100, backend, opt);
    EngineResult p = portfolio.run(n100, backend, plain);
    expectBitIdentical(t.result, p,
                       "n100/" + std::string(backendName(backend)));
  }
}

// The exchange schedule is a pure function of (round, salt, seeds, costs,
// temps, active): identical inputs replay identical plans, and the
// structural rules (parity pairing, flat-ladder P = 1, finished replicas
// never swap) hold on random inputs.
TEST(Tempering, ExchangePlanIsAPureFunctionOfItsInputs) {
  Rng rng(99);
  for (int trial = 0; trial < 16; ++trial) {
    const std::size_t k = 2 + rng.index(6);
    std::vector<std::uint64_t> seeds(k);
    std::vector<double> costs(k), temps(k);
    std::vector<std::uint8_t> active(k);
    for (std::size_t i = 0; i < k; ++i) {
      seeds[i] = rng.index(1u << 20);
      costs[i] = rng.uniform() * 100.0;
      temps[i] = 0.5 + rng.uniform() * 10.0;
      active[i] = rng.coin() ? 1 : 0;
    }
    const std::uint64_t round = rng.index(64);
    const std::uint64_t salt = rng.index(4);
    std::vector<std::size_t> planA, planB;
    planExchanges(round, salt, seeds, costs, temps, active, planA);
    planExchanges(round, salt, seeds, costs, temps, active, planB);
    EXPECT_EQ(planA, planB) << "trial " << trial;
    for (std::size_t lo : planA) {
      EXPECT_EQ(lo % 2, round % 2) << "parity, trial " << trial;
      EXPECT_LT(lo + 1, k);
      EXPECT_NE(active[lo], 0) << "trial " << trial;
      EXPECT_NE(active[lo + 1], 0) << "trial " << trial;
    }
    // A flat ladder accepts every considered live pair (P = 1): this is
    // exactly why degeneration needs exchanges off, not just ratio 1.0.
    std::fill(temps.begin(), temps.end(), 3.0);
    std::vector<std::size_t> flat;
    planExchanges(round, salt, seeds, costs, temps, active, flat);
    for (std::size_t i = round % 2; i + 1 < k; i += 2) {
      const bool live = active[i] != 0 && active[i + 1] != 0;
      const bool planned =
          std::find(flat.begin(), flat.end(), i) != flat.end();
      EXPECT_EQ(planned, live) << "flat ladder, trial " << trial;
    }
    // All-finished rounds plan nothing.
    std::fill(active.begin(), active.end(), std::uint8_t{0});
    std::vector<std::size_t> none;
    planExchanges(round, salt, seeds, costs, temps, active, none);
    EXPECT_TRUE(none.empty());
  }
  // The schedule seed is order-sensitive in the seeds and varies by round.
  const std::vector<std::uint64_t> ab = {1, 2};
  const std::vector<std::uint64_t> ba = {2, 1};
  EXPECT_NE(exchangeScheduleSeed(0, ab), exchangeScheduleSeed(0, ba));
  EXPECT_NE(exchangeScheduleSeed(0, ab), exchangeScheduleSeed(1, ab));
}

// Cross-backend tempering race: thread-count invariant (including the
// cross-seeding decisions) and consistent with the PortfolioRunner routing.
TEST(Tempering, RaceWithCrossSeedingIsThreadCountInvariant) {
  Circuit c = makeTableICircuit(TableICircuit::ComparatorV2);
  EngineOptions opt;
  opt.maxSweeps = 120;
  opt.numRestarts = 2;
  opt.seed = 23;
  opt.tempering = true;
  opt.exchangeInterval = 2;
  opt.ladderRatio = 1.5;
  opt.crossSeed = true;
  TemperingRunner runner;
  opt.numThreads = 1;
  TemperingOutcome serial = runner.race(c, allBackends(), opt);
  opt.numThreads = 8;
  TemperingOutcome parallel = runner.race(c, allBackends(), opt);
  EXPECT_EQ(serial.backend, parallel.backend);
  expectBitIdentical(serial.result, parallel.result, "tempering race");
  expectSameReplicas(serial, parallel, "tempering race");
  // The coupling is real on this configuration: ladders swap and lagging
  // backends adopt the leader's placement through the converters.
  EXPECT_GT(serial.exchangesAccepted, 0u);
  EXPECT_GT(serial.reseeds, 0u);
  PortfolioRunner routed;
  PortfolioRunner::RaceOutcome viaPortfolio = routed.race(c, allBackends(), opt);
  EXPECT_EQ(viaPortfolio.backend, serial.backend);
  expectBitIdentical(viaPortfolio.result, serial.result, "routed race");
}

// The per-cell bank is the executor's one scratch seam, and a cell without
// one owns its session's buffers.  Either way a cell computes the same bits:
// on the barrier-free route (a restart plan) and on the rounds route (a
// ladder), for every backend, with the bank warmed on another circuit first
// so stale contents would show.
TEST(PlanExecutor, WarmBankAndSessionOwnedBuffersGiveIdenticalCells) {
  const Circuit warmUp = loadCorpusCircuit(CorpusCircuit::Apte);
  const Circuit c = loadCorpusCircuit(CorpusCircuit::Ami33);
  for (bool ladder : {false, true}) {
    EngineOptions opt;
    opt.maxSweeps = 24;
    opt.numRestarts = 3;
    opt.seed = 13;
    opt.numThreads = 2;
    opt.tempering = ladder;
    opt.exchangeInterval = 2;
    for (EngineBackend backend : allBackends()) {
      const std::string label = std::string(backendName(backend)) +
                                (ladder ? " ladder" : " restarts");
      const std::span<const EngineBackend> backends(&backend, 1);
      TemperingScratch bank;
      executePlan(nullptr, {.circuits = {&warmUp, 1},
                            .backends = backends,
                            .options = opt,
                            .bank = &bank});
      const PlanOutcome banked = executePlan(
          nullptr, {.circuits = {&c, 1},
                    .backends = backends,
                    .options = opt,
                    .bank = &bank});
      const PlanOutcome owned = executePlan(
          nullptr, {.circuits = {&c, 1}, .backends = backends, .options = opt});
      ASSERT_EQ(banked.results.size(), 1u) << label;
      ASSERT_EQ(owned.results.size(), 1u) << label;
      expectBitIdentical(banked.results[0], owned.results[0], label);
      EXPECT_EQ(banked.rounds, owned.rounds) << label;
      EXPECT_EQ(banked.exchangesAccepted, owned.exchangesAccepted) << label;
      EXPECT_EQ(banked.rounds > 0, ladder) << label;
      ASSERT_EQ(banked.cells.size(), owned.cells.size()) << label;
      for (std::size_t i = 0; i < banked.cells.size(); ++i) {
        const TemperingReplica& a = banked.cells[i];
        const TemperingReplica& b = owned.cells[i];
        EXPECT_EQ(a.seed, b.seed) << label << " cell " << i;
        EXPECT_EQ(a.tempScale, b.tempScale) << label << " cell " << i;
        EXPECT_EQ(a.cost, b.cost) << label << " cell " << i;
        EXPECT_EQ(a.sweeps, b.sweeps) << label << " cell " << i;
        EXPECT_EQ(a.movesTried, b.movesTried) << label << " cell " << i;
        EXPECT_EQ(a.exchanges, b.exchanges) << label << " cell " << i;
      }
    }
  }
}

// Stress for the sanitizer configs (ASan/UBSan catch lifetime bugs, TSan the
// synchronization): many short fork-joins plus a full multi-backend race on
// an oversubscribed pool.
TEST(Runtime, StressUnderSanitizers) {
  ThreadPool pool(8);
  std::atomic<std::size_t> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.parallelFor(64, [&](std::size_t i) { total += i; });
  }
  EXPECT_EQ(total.load(), 50u * 2016u);

  Circuit c = makeSynthetic(
      {.name = "stress", .moduleCount = 12, .seed = 3, .symmetricFraction = 0.5});
  EngineOptions opt;
  opt.maxSweeps = 48;
  opt.numRestarts = 8;
  opt.seed = 29;
  PortfolioRunner runner(&pool);
  PortfolioRunner::RaceOutcome a = runner.race(c, allBackends(), opt);
  PortfolioRunner::RaceOutcome b = runner.race(c, allBackends(), opt);
  EXPECT_EQ(a.backend, b.backend);
  expectBitIdentical(a.result, b.result, "stress race");
}

}  // namespace
}  // namespace als
