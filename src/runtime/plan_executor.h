// The plan executor — the one route from a job to its replica sessions
// (thread pool -> plan executor -> replica sessions -> backends).  Every
// library caller that places — a one-backend run, a race, a batch, a
// tempering ladder, a serve job — is a plan here; a one-backend job at the
// default single restart is a one-slice plan, bit-identical to one session
// run to completion.
//
// A plan is a grid of cells.  Each (circuit, backend) pair is a GROUP, and
// each group holds the `options.numRestarts` budget slices of the shared
// restart plan (`makeRestartPlan`: seed-scheduled, budgets summing exactly
// to `options.maxSweeps`).  Cells are laid out circuit-major, then backend,
// then slice.  Every cell is a resumable `ReplicaSession`
// (engine/replica_session.h); the executor fans the cells over a
// deterministic ThreadPool and reduces each group with the portfolio
// reduction.  The restart portfolio, the backend race, the batch placer,
// the tempering runner and the serve workers are all callers that only
// choose the grid, the policy and an optional round hook.
//
// Exchange policy — `options.tempering`:
//   * off: the cells are independent restarts;
//   * on:  each group is a parallel-tempering LADDER.  Slice i anneals with
//     its t0 multiplied by ladderRatio^i (repeated multiplication, never
//     pow — identical rounding everywhere).  Every `exchangeInterval`
//     sweeps the cells meet at a round barrier, where adjacent rungs may
//     swap their current states (`planExchanges`), and — with
//     `options.crossSeed` and more than one backend — each lagging ladder
//     of a circuit re-seeds its worst live replica from that circuit's
//     leader through the from_placement converters.
//   With `exchangeInterval = 0` AND `ladderRatio = 1.0` a ladder IS the
//   independent-restart portfolio, bit for bit (same plan, tempScale 1.0
//   multiplies exactly, no barrier touches a state).  Both knobs are
//   needed: a ratio-1.0 ladder with exchanges on has 1/Ti - 1/Tj = 0, so
//   P = 1 and every considered pair swaps.
//
// Two routes:
//   * barrier-free — no exchanges and no round hook.  Each cell is created,
//     run and finished inside one pool task, so at most `threadCount()`
//     sessions are alive at once.
//   * rounds — the ladder exchanges or a hook needs barriers.  All sessions
//     are created up front and advance in fork-join rounds of
//     `exchangeInterval` sweeps (the ladder's spacing is part of its
//     result) or, when the ladder never exchanges, of `hook->interval`
//     sweeps.  Exchanges, cross-seeding and the hook run on the calling
//     thread between fork-joins.
// Scratch: a cell borrows its entry of the caller's per-cell bank
// (`PlanRequest::bank`) when there is one, and otherwise owns its session's
// buffers.  There is no per-worker scratch.
//
// Why two routes and a bank (throwaway probes, not committed):
//   * the routes hold different amounts of memory — over 4000 ami49 hbstar
//     cells the barrier-free route held about 2 KB per finished cell, the
//     rounds route about 192 KB per live cell;
//   * the bank is the seam the exact allocation gates warm through — a
//     cold slicing session keeps growing its memoised curve buffers for
//     about 100 sweeps (355 allocations at 16 sweeps against 344 at 8 on
//     ami33), so only a pre-warmed bank makes the gates' zero difference
//     hold, and a serve worker keeps one warm across jobs.
// Per-worker buffers do not pay: 15 portfolio races shaped like alsbench
// mcnc-race (5 MCNC circuits x 3 seeds, 8 restarts, 4 backends, 4 threads)
// took 4.16, 4.12 and 4.13 s with them and 4.02, 4.12 and 4.20 s without,
// with identical cost sums.
//
// Determinism: every cell is a pure function of its (seed, budget, rung)
// slice plus the barrier decisions applied to it; the barrier decisions are
// pure functions of (round, seeds, costs, temperatures) computed on one
// thread; the reduction scans an index-addressed array in schedule order.
// The outcome is therefore bit-identical at any thread count and on either
// route — the property the Portfolio, BatchPlacer and Tempering suites of
// tests/runtime_test.cpp pin.  A paused session resumes bit-identically, so
// a hook's extra barriers never change a result either.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "engine/replica_session.h"
#include "runtime/thread_pool.h"

namespace als {

struct PlaceScratch;

/// One restart's slice of a plan.
struct RestartSlice {
  std::size_t index = 0;      ///< position in the restart schedule
  std::uint64_t seed = 0;     ///< portfolioSeedAt(options.seed, index)
  std::size_t maxSweeps = 0;  ///< splitSweepBudget slice (0 = uncapped)
};

/// The deterministic slices of a plan: `options.numRestarts` slices (at
/// least one), seeds from the portfolio seed schedule, sweep budgets summing
/// exactly to `options.maxSweeps`.  When `maxSweeps > 0` the slice count is
/// capped at the total budget — a slice budget of zero would mean
/// "uncapped" everywhere in the library, not "no work".
std::vector<RestartSlice> makeRestartPlan(const EngineOptions& options);

/// Options of one cell: own seed and budget, multi-start and tempering
/// knobs neutralized (a cell is exactly one session).  Every field the
/// caller set — objective weights, `movesPerTemp` (its auto value each
/// session resolves from its circuit's size), the cancel token — flows
/// through unchanged.
EngineOptions sliceEngineOptions(const EngineOptions& base,
                                 const RestartSlice& slice);

/// Position of the best of `results` on the total order (cost, bestSeed,
/// position): strict improvement only, so an exact tie keeps the earliest.
std::size_t raceWinner(std::span<const EngineResult> results);

/// Collapses one group's slices (in schedule order) into the aggregate
/// result: `raceWinner`'s placement, summed counters and seconds,
/// `bestRestart` = winner's schedule index.  Scanning in schedule order over
/// an index-addressed array keeps the choice independent of which thread
/// finished first (callers overwrite `seconds` with their wall clock).
EngineResult reducePortfolioSlices(std::vector<EngineResult>&& slices);

/// Hash of (round, replica seeds) — the seed of round `round`'s exchange
/// RNG.  Pure and order-sensitive in `seeds`; no costs enter, so the
/// schedule's random draws are independent of the annealing trajectories
/// (only the accept thresholds depend on costs).
std::uint64_t exchangeScheduleSeed(std::uint64_t round,
                                   std::span<const std::uint64_t> seeds);

/// Plans round `round`'s exchanges on one ladder: considers adjacent pairs
/// (i, i+1) with i of parity `round % 2` (alternating even/odd pairing —
/// the standard deterministic-sweep tempering scheme), draws one uniform
/// per considered pair unconditionally (the draw stream never depends on
/// costs or liveness), and accepts with the tempering Metropolis rule
///
///     P(swap i,j) = min(1, exp((1/Ti - 1/Tj) (Ei - Ej))).
///
/// Pairs with a finished replica (`active[i] == 0`) or a non-positive
/// temperature never swap.  `salt` decorrelates parallel ladders sharing
/// seeds (the executor salts by backend position).  Appends the lower index
/// of each accepted pair to `out` (cleared first), in increasing order.
///
/// Pure function of its arguments — the property tests/runtime_test.cpp
/// pins.
void planExchanges(std::uint64_t round, std::uint64_t salt,
                   std::span<const std::uint64_t> seeds,
                   std::span<const double> costs,
                   std::span<const double> temps,
                   std::span<const std::uint8_t> active,
                   std::vector<std::size_t>& out);

/// Persistent per-cell scratch bank, the one scratch seam of the runtime
/// layer.  The bank is keyed by CELL INDEX — each entry is lent to exactly
/// one session per plan (through `makeReplicaSession`'s scratch parameter),
/// on either route and at any thread count.  The scratch-reuse contract of
/// engine/place_scratch.h applies: contents never influence results, only
/// whether the round loop allocates, and at most one plan may use a bank at
/// a time.  Passing the same bank to consecutive plans keeps every buffer
/// at its high-water capacity — the setup the steady-state allocation gate
/// (tests/alloc_gate_test.cpp) measures under, and what a serve worker
/// keeps across jobs.
struct TemperingScratch {
  TemperingScratch();
  ~TemperingScratch();
  std::vector<std::unique_ptr<PlaceScratch>> replicas;
};

/// Per-cell accounting of one plan: the cell's run counters plus its place
/// on the ladder.
struct TemperingReplica : RunCounters {
  std::uint64_t seed = 0;    ///< slice seed (portfolio schedule)
  double tempScale = 1.0;    ///< ladder rung: t0 multiplier (1.0 off-ladder)
  double cost = 0.0;         ///< final best cost of this cell
  std::size_t exchanges = 0; ///< accepted swaps this cell took part in
  std::size_t reseeds = 0;   ///< cross-backend seeds adopted
};

/// What a round hook sees at each barrier, on the calling thread.
struct RoundStatus {
  std::size_t round = 0;        ///< barriers so far, this one included
  std::size_t roundSweeps = 0;  ///< sweeps each live cell advances per round
  std::size_t sweepsDone = 0;   ///< sweeps executed by all cells so far
  double bestCost = 0.0;        ///< best cost over all cells so far
};

/// A per-round callback (progress, cancellation, sweep deadlines).  It runs
/// after the barrier's exchanges; a cancel it requests through the plan's
/// token takes effect at every cell's next sweep check, i.e. at a barrier —
/// so a sweep-counted stop stays deterministic.
struct RoundHook {
  std::size_t interval = 1;  ///< sweeps per round when no ladder fixes it
  std::function<void(const RoundStatus&)> onRound;
};

struct PlanRequest {
  std::span<const Circuit> circuits;
  std::span<const EngineBackend> backends;
  const EngineOptions& options;      ///< plan, policy and objective knobs
  const RoundHook* hook = nullptr;   ///< optional; forces the rounds route
  TemperingScratch* bank = nullptr;  ///< optional per-cell scratch source
};

struct PlanOutcome {
  /// One reduced result per group, circuit-major (`circuits.size()` x
  /// `backends.size()`).
  std::vector<EngineResult> results;
  std::vector<TemperingReplica> cells;  ///< one per cell, grid order
  std::size_t rounds = 0;               ///< round barriers executed
  std::size_t exchangesAccepted = 0;    ///< total accepted swaps
  std::size_t reseeds = 0;              ///< total cross-backend seeds adopted
};

/// Runs the plan on `pool`, or on a pool sized from `options.numThreads`
/// when `pool` is null.
PlanOutcome executePlan(ThreadPool* pool, const PlanRequest& request);

}  // namespace als
