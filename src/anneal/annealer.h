// Generic simulated-annealing engine (Kirkpatrick et al. [12]).
//
// Every stochastic placer of the library — the Section II sequence-pair
// placer, the Section III (H)B*-tree placers, the slicing baseline and the
// absolute-coordinate baseline — and the Section V sizing optimizers share
// this engine.  States are value types.  A move, `void(State&, Rng&)`,
// perturbs a persistent candidate buffer in place: the loop copy-assigns
// the current state into it (reusing its storage), and swaps it in on
// acceptance, so the steady-state move loop constructs no state.  The
// placers run it through one session template over a backend policy
// (anneal/session.h).
//
// Temperature schedule: geometric cooling with an initial temperature
// calibrated from the mean uphill delta of a random-walk sample, the classic
// recipe that makes one knob work across differently scaled cost functions.
//
// Stopping rules: the primary budget is `maxSweeps`, a count of temperature
// steps.  For a fixed seed the trajectory is then a pure function of the
// options — identical on a loaded CI box, under sanitizers, or on faster
// hardware.  The only other rule is `AnnealOptions::cancel`
// (util/cancel_token.h), which stops on a cancellation or an armed
// wall-clock deadline — every time cap of the library is such a deadline.
// EVERY entry point honours it through the same seam — `anneal`,
// `annealWithRestarts` and the placer sessions the runtime layer builds
// on — because they all run the one sweep loop of `AnnealDriver`, where the
// check lives.  The contract:
//
//   * Granularity: the token is tested once per SWEEP (temperature step),
//     never mid-move.  A run is therefore stopped only at a point where
//     the current cost, any decode scratch, and the move buffers are all
//     consistent — the scratch-reuse contract survives, and
//     the next run on the same buffers is bit-identical to a fresh process.
//   * Result: a stopped run returns normally with the best state found so
//     far; `sweeps` reports what actually executed.  No flag is added to
//     the result — the token records why it stopped.  Because the outcome
//     depends on when the stop was seen, stopped results are NOT
//     deterministic and must never be cached or compared against golden
//     trajectories.
//   * Restarts: a stop also ends the restart schedule — the active run is
//     merged and no further restart begins.  An uncapped schedule
//     (`maxSweeps == 0`) restarts until an armed deadline passes.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <utility>

#include "util/cancel_token.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace als {

struct AnnealOptions {
  double coolingFactor = 0.96;    ///< geometric alpha per temperature step
  std::size_t movesPerTemp = 0;   ///< 0 = auto (scaled by a problem-size hint)
  std::size_t sizeHint = 16;      ///< problem size used when movesPerTemp == 0
  double initialAcceptance = 0.9; ///< target uphill acceptance at t0
  double freezeRatio = 1e-4;      ///< stop when t < t0 * freezeRatio
  std::size_t maxSweeps = 256;    ///< primary budget: temperature steps (0 = uncapped)
  std::uint64_t seed = 42;
  /// Cancellation and wall-clock deadline, checked once per sweep (see the
  /// header comment for the contract).  Not owned; may be null.
  const CancelToken* cancel = nullptr;
};

template <class State>
struct AnnealResult {
  State best;
  double bestCost = 0.0;
  std::size_t movesTried = 0;
  std::size_t movesAccepted = 0;
  std::size_t sweeps = 0;  ///< temperature steps actually executed
  double seconds = 0.0;
};

// ---------------------------------------------------------------------------
// Restart schedule — the shared vocabulary of every multi-start driver.
//
// Both the sequential restart loop below and the parallel plan executor
// (runtime/plan_executor.h) derive their per-restart seeds and sweep budgets
// from these helpers.

/// Seed of the restart following `seed` (an LCG step with Knuth's MMIX
/// constants — full period over 2^64, so schedule seeds never repeat).
constexpr std::uint64_t nextRestartSeed(std::uint64_t seed) {
  return seed * 6364136223846793005ull + 1442695040888963407ull;
}

/// Seed of portfolio slice `index` rooted at `baseSeed`.  Slice 0 is
/// `baseSeed` itself (a 1-restart portfolio must match a plain engine call
/// bit for bit); later slices are splitmix64-mixed rather than consecutive
/// LCG iterates.  The distinction matters: a slice that freezes before its
/// budget is spent restarts *internally* on `nextRestartSeed(seed)`, and
/// with consecutive iterates that internal stream would replay the next
/// slice's seed — duplicating annealing work across slices.  Mixing keeps
/// every slice's stream disjoint.
constexpr std::uint64_t portfolioSeedAt(std::uint64_t baseSeed,
                                        std::size_t index) {
  if (index == 0) return baseSeed;
  std::uint64_t z =
      baseSeed + 0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(index);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Sweep budget of restart `index` when `totalSweeps` is split across
/// `numRestarts` fixed slices: the remainder goes to the earliest restarts,
/// so slices differ by at most one sweep and sum exactly to the total.
constexpr std::size_t splitSweepBudget(std::size_t totalSweeps,
                                       std::size_t numRestarts,
                                       std::size_t index) {
  if (numRestarts == 0) return totalSweeps;
  return totalSweeps / numRestarts + (index < totalSweeps % numRestarts);
}

/// The auto-scaling rule behind `movesPerTemp == 0`.  Drivers that split one
/// run into several restarts must resolve the auto value ONCE per run (not
/// per restart) and pass the resolved value down, so every slice anneals on
/// the schedule the equivalent sequential run would have used.
constexpr std::size_t resolveMovesPerTemp(std::size_t movesPerTemp,
                                          std::size_t sizeHint) {
  return movesPerTemp ? movesPerTemp : 10 * sizeHint;
}

/// The driver options of a placer's native options struct.  Every native
/// struct carries the same SA knobs (`maxSweeps`, `seed`, `coolingFactor`,
/// `movesPerTemp`, `cancel`); they are mapped here once.  `sizeHint` is the
/// problem size the auto `movesPerTemp` scales with (the module count).
template <class NativeOptions>
AnnealOptions annealOptionsOf(const NativeOptions& native,
                              std::size_t sizeHint) {
  return {.coolingFactor = native.coolingFactor,
          .movesPerTemp = native.movesPerTemp,
          .sizeHint = sizeHint,
          .maxSweeps = native.maxSweeps,
          .seed = native.seed,
          .cancel = native.cancel};
}

namespace detail {

/// Cost of a decoded state.  The annealing loop calls one cost functor,
/// `double(const State&)`, on every state it visits and keeps the current
/// cost itself; a rejected move costs nothing further.  The placers anneal
/// a topological code (B*-tree, sequence pair, Polish expression) and cost
/// its decoded placement through `DecodedCost`: decode, then let the model
/// reduce the whole placement.  A decode repacks the whole placement and a
/// move shifts a large share of the blocks, so there is no committed state
/// to diff against and no moved-module hint (see the cost/cost_model.h
/// header).  `decode` is a small callable held by value (a function pointer,
/// or a handle to the owner of the decode scratch) returning anything
/// optional-like (contextually bool + dereferenceable):
/// `std::optional<Placement>` by value, or — the allocation-free style every
/// backend uses — a `const Placement*` aliasing a scratch buffer, valid only
/// until the NEXT decode call, so the placement is evaluated at once.  A
/// state that does not decode costs `model.infeasibleCost()`.
template <class Model, class DecodeF>
struct DecodedCost {
  const Model& model;
  DecodeF decode;

  template <class State> double operator()(const State& s) const {
    auto placed = decode(s);
    return placed ? model.evaluate(*placed) : model.infeasibleCost();
  }
};

/// The one acceptance loop behind both the calibration walk and the
/// Metropolis sweeps: propose `count` moves from `cur`, cost each with
/// `cost`, and let `acceptMove` decide on the delta.  `onAccept` runs after
/// `cur`/`curCost` advanced.  `moveBuf` is the persistent candidate buffer:
/// the loop copy-assigns `cur` into it (reusing its heap storage), perturbs
/// it in place, and swaps on acceptance — no per-move construction, no
/// per-move copy of the decoded placement.
template <class State, class CostF, class MoveF, class AcceptF, class OnAcceptF>
void annealPass(State& cur, double& curCost, std::size_t count, CostF& cost,
                MoveF& move, Rng& rng, State& moveBuf, AcceptF&& acceptMove,
                OnAcceptF&& onAccept) {
  for (std::size_t i = 0; i < count; ++i) {
    moveBuf = cur;
    move(moveBuf, rng);
    double nextCost = cost(moveBuf);
    if (acceptMove(nextCost - curCost)) {
      using std::swap;
      swap(cur, moveBuf);
      curCost = nextCost;
      onAccept();
    }
  }
}

// ---------------------------------------------------------------------------
// AnnealDriver — the one annealing loop of the library, as a resumable state
// machine.
//
// Every entry point runs on it: `anneal` (one run, restarts off),
// `annealWithRestarts` and every placer session (restarts on).  A run
// seeds its RNG, calibrates t0 with a 50-move accept-all walk, then cools
// geometrically until it freezes, exhausts its leftover sweep budget or is
// stopped; with restarts on, a finished run's leftover budget funds the
// next run on `nextRestartSeed`.  The caller advances the schedule in
// sweep-sized steps it can pause between.  That is the seam the plan
// executor (runtime/plan_executor.h) needs: K replicas advance in
// fixed-length rounds, exchange states at the barrier, and resume with
// their RNG, temperature and current cost intact.
// `runSweeps` crosses restart boundaries on its own, so a paused driver run
// to completion produces the sequential result bit for bit (pinned by the
// degeneration suite in tests/runtime_test.cpp).
//
// `tempScale` multiplies the calibrated t0 of every run the driver starts
// (and tFreeze follows, so the freeze horizon keeps the same sweep count).
// A scale of 1.0 multiplies exactly (IEEE754) — the default is bit-identical
// to the sequential loop; a ladder of scales > 1 yields the hotter replicas
// of a tempering ladder.
//
// All per-run state (current state, candidate buffer, calibration probe,
// per-run result) lives in members that are copy-assigned, never
// reconstructed, so resuming across rounds performs no steady-state
// allocations once every buffer reached its high-water capacity.
template <class State, class CostF, class MoveF>
class AnnealDriver {
 public:
  /// `restarts = false` ends the schedule with its first run: the plain
  /// `anneal` loop.
  AnnealDriver(const State& init, CostF cost, MoveF move,
               const AnnealOptions& options, double tempScale = 1.0,
               bool restarts = true)
      : cost_(std::forward<CostF>(cost)),
        move_(std::forward<MoveF>(move)),
        options_(options),
        tempScale_(tempScale),
        init_(init),
        // The first merge adopts the first run's best (which starts at
        // init); each run evaluates its own start state.
        best_{init, std::numeric_limits<double>::infinity(), 0, 0, 0, 0.0},
        cur_(init),
        moveBuf_(init),
        probe_(init),
        runResult_{init, 0.0, 0, 0, 0, 0.0},
        seed_(options.seed),
        sweepCapped_(options.maxSweeps > 0),
        restarts_(restarts) {
    options_.movesPerTemp =
        resolveMovesPerTemp(options.movesPerTemp, options.sizeHint);
    beginRun();
  }

  /// Executes up to `maxSweeps` temperature steps (crossing restart
  /// boundaries; a boundary's re-seed + calibration is not a sweep) and
  /// returns the number actually executed — fewer only when the whole
  /// schedule finished.
  std::size_t runSweeps(std::size_t maxSweeps) {
    std::size_t done = 0;
    while (!finished_ && done < maxSweeps) {
      if (cancelRequested(options_.cancel)) {
        // A stop ends the whole schedule: merge the active run so
        // `finalize()` reports best-so-far, and never start another
        // restart.  The decode scratch is at a sweep boundary,
        // hence consistent and reusable.
        mergeRun();
        finished_ = true;
        break;
      }
      if (t_ > tFreeze_ &&
          (runBudget_ == 0 || runResult_.sweeps < runBudget_)) {
        annealPass(cur_, curCost_, options_.movesPerTemp, cost_, move_, rng_,
                   moveBuf_,
                   [&](double delta) {
                     ++runResult_.movesTried;
                     return delta <= 0.0 ||
                            rng_.uniform() < std::exp(-delta / t_);
                   },
                   [&] {
                     ++runResult_.movesAccepted;
                     if (curCost_ < runResult_.bestCost) {
                       runResult_.best = cur_;
                       runResult_.bestCost = curCost_;
                     }
                   });
        t_ *= options_.coolingFactor;
        ++runResult_.sweeps;
        ++done;
      } else {
        endRun();
      }
    }
    return done;
  }

  /// Runs the remaining schedule to completion.
  void run() {
    while (!finished_) {
      runSweeps(static_cast<std::size_t>(-1));
    }
  }

  bool finished() const { return finished_; }

  /// The state the Metropolis walk currently sits on.  Mutable access is the
  /// replica-exchange seam: after writing through it, call `reanchor()`.
  State& currentState() { return cur_; }
  const State& currentState() const { return cur_; }
  double currentCost() const { return curCost_; }

  /// Current SA temperature (already ladder-scaled).
  double temperature() const { return t_; }

  double bestCost() const {
    return finished_ ? best_.bestCost
                     : std::min(best_.bestCost, runResult_.bestCost);
  }

  /// Best state over finished runs and the active run.
  const State& bestState() const {
    if (!finished_ && runResult_.bestCost < best_.bestCost) {
      return runResult_.best;
    }
    return best_.best;
  }

  /// Sweeps executed so far (finished runs + the active run).
  std::size_t sweepsDone() const {
    return best_.sweeps + (finished_ ? 0 : runResult_.sweeps);
  }

  /// Re-costs `currentState()` after it was mutated externally (a replica
  /// exchange or a cross-backend reseed): one evaluation, best tracking, no
  /// RNG consumed — so exchanges at deterministic rounds
  /// keep the whole trajectory a pure function of the schedule.
  void reanchor() {
    curCost_ = cost_(cur_);
    if (!finished_ && curCost_ < runResult_.bestCost) {
      runResult_.best = cur_;
      runResult_.bestCost = curCost_;
    }
  }

  /// Swaps the current states of two replicas of the SAME problem (their
  /// costs are re-evaluated; RNG streams stay put).
  static void exchange(AnnealDriver& a, AnnealDriver& b) {
    using std::swap;
    swap(a.cur_, b.cur_);
    a.reanchor();
    b.reanchor();
  }

  /// The aggregate result; only meaningful once `finished()`.  Runs the
  /// remaining schedule first so a plain construct-finalize sequence is the
  /// sequential driver.
  AnnealResult<State> finalize() {
    run();
    AnnealResult<State> result = best_;
    result.seconds = clock_.seconds();
    return result;
  }

 private:
  void beginRun() {
    rng_ = Rng(seed_);
    cur_ = init_;
    curCost_ = cost_(cur_);
    runResult_.best = cur_;
    runResult_.bestCost = curCost_;
    runResult_.movesTried = 0;
    runResult_.movesAccepted = 0;
    runResult_.sweeps = 0;

    // Calibrate t0 so that `initialAcceptance` of sampled uphill moves
    // pass: a 50-move random walk that accepts everything and records the
    // uphill deltas.
    double upSum = 0.0;
    std::size_t upCount = 0;
    probe_ = cur_;
    double probeCost = curCost_;
    annealPass(probe_, probeCost, 50, cost_, move_, rng_, moveBuf_,
               [&](double delta) {
                 if (delta > 0.0) {
                   upSum += delta;
                   ++upCount;
                 }
                 return true;
               },
               [] {});
    double meanUp = upCount ? upSum / static_cast<double>(upCount) : 1.0;
    if (meanUp <= 0.0) meanUp = 1.0;
    t_ = -meanUp / std::log(options_.initialAcceptance);
    t_ *= tempScale_;
    tFreeze_ = t_ * options_.freezeRatio;

    runBudget_ = sweepCapped_ ? options_.maxSweeps - best_.sweeps : 0;
  }

  void mergeRun() {
    best_.movesTried += runResult_.movesTried;
    best_.movesAccepted += runResult_.movesAccepted;
    best_.sweeps += runResult_.sweeps;
    if (runResult_.bestCost < best_.bestCost) {
      best_.best = runResult_.best;
      best_.bestCost = runResult_.bestCost;
    }
  }

  void endRun() {
    mergeRun();
    seed_ = nextRestartSeed(seed_);
    // A restart is funded by leftover sweeps, or — uncapped — by an armed
    // deadline; with neither, a single (freeze-terminated) run is the
    // answer.  A run of zero sweeps (budget rounded to nothing) cannot make
    // progress; stop instead of spinning.
    const CancelToken* token = options_.cancel;
    bool funded = sweepCapped_ ? best_.sweeps < options_.maxSweeps
                               : token != nullptr && token->hasDeadline();
    if (!restarts_ || !funded || runResult_.sweeps == 0 ||
        cancelRequested(options_.cancel)) {
      finished_ = true;
      return;
    }
    beginRun();
  }

  CostF cost_;
  MoveF move_;
  AnnealOptions options_;  // movesPerTemp resolved once at construction
  double tempScale_;
  Stopwatch clock_;  // whole-schedule wall clock

  State init_;
  AnnealResult<State> best_;       // merged result of the finished runs
  State cur_;
  double curCost_ = 0.0;
  State moveBuf_;                  // persistent candidate buffer
  State probe_;                    // persistent calibration-walk buffer
  AnnealResult<State> runResult_;  // active run's accounting
  Rng rng_{0};
  double t_ = 0.0;
  double tFreeze_ = 0.0;
  std::size_t runBudget_ = 0;   // active run's sweep cap (0 = uncapped)
  std::uint64_t seed_;
  const bool sweepCapped_;
  const bool restarts_;
  bool finished_ = false;
};

}  // namespace detail

/// Runs simulated annealing from `init`.
///
/// `cost`:  double(const State&) — smaller is better.
/// `move`:  void(State&, Rng&) — perturbs IN PLACE a buffer already holding
///          a copy of the current state (the engine swaps the persistent
///          buffer in on acceptance, so the steady-state move loop
///          constructs no state).
template <class State, class CostF, class MoveF>
AnnealResult<State> anneal(State init, CostF&& cost, MoveF&& move,
                           const AnnealOptions& opt) {
  detail::AnnealDriver<State, CostF&, MoveF&> driver(
      init, cost, move, opt, 1.0, /*restarts=*/false);
  return driver.finalize();
}

/// Repeats annealing runs (freshly seeded each round) until the sweep budget
/// is exhausted and returns the best result.  A single geometric schedule
/// often freezes long before a realistic budget ends; restarts turn the
/// leftover budget into independent attempts, which is the standard
/// industrial recipe for the plateau-heavy landscapes of floorplan codes.
///
/// Budget semantics: `options.maxSweeps` is the *total* sweep budget across
/// all restarts (primary, deterministic); a deadline armed on
/// `options.cancel` caps the total wall clock.  The caller's options
/// struct is never mutated, and the leftover budget handed to each restart
/// is clamped to zero or above.
///
/// Restart seeds follow the shared schedule (`nextRestartSeed`), and the
/// `movesPerTemp` auto value is resolved once up front, so a parallel
/// portfolio splitting the same budget across pre-sized slices anneals on
/// the same per-restart schedule this loop would.
template <class State, class CostF, class MoveF>
AnnealResult<State> annealWithRestarts(const State& init, CostF&& cost,
                                       MoveF&& move,
                                       const AnnealOptions& options) {
  detail::AnnealDriver<State, CostF&, MoveF&> driver(init, cost, move,
                                                    options);
  return driver.finalize();
}

}  // namespace als
