// Generic simulated-annealing engine (Kirkpatrick et al. [12]).
//
// Both stochastic placers of the library — the Section II sequence-pair
// placer and the Section III (H)B*-tree placer — and the Section V sizing
// optimizer share this engine.  States are value types; a move produces a
// mutated copy, which keeps the engine trivially exception-safe and lets
// move implementations stay simple (analog placements are small, so copying
// an encoding is cheap relative to packing it).
//
// Temperature schedule: geometric cooling with an initial temperature
// calibrated from the mean uphill delta of a random-walk sample, the classic
// recipe that makes one knob work across differently scaled cost functions.
//
// Stopping rules: the primary budget is `maxSweeps`, a count of temperature
// steps.  For a fixed seed the trajectory is then a pure function of the
// options — identical on a loaded CI box, under sanitizers, or on faster
// hardware.  `timeLimitSec` remains available as a *secondary* wall-clock
// cap (0 disables it); results obtained under an active time cap are not
// reproducible and should be reserved for interactive/budgeted use.
//
// Cancellation: `AnnealOptions::cancel` (util/cancel_token.h) is the third,
// externally triggered stopping rule.  EVERY entry point honours it through
// the same seam — `anneal`, `annealWithRestarts` and the backend sessions
// the runtime layer builds on — because they all run the one sweep loop of
// `AnnealDriver`, where the check lives.  The contract:
//
//   * Granularity: the flag is tested once per SWEEP (temperature step),
//     never mid-move.  A run is therefore cancelled only at a point where
//     the evaluator's committed state, any decode scratch, and the move
//     buffers are all consistent — the scratch-reuse contract survives, and
//     the next run on the same buffers is bit-identical to a fresh process.
//   * Result: a cancelled run returns normally with the best state found so
//     far; `sweeps` reports what actually executed.  No flag is added to
//     the result — the token's owner knows it cancelled.  Because the
//     outcome depends on when the flag was seen, cancelled results are NOT
//     deterministic and must never be cached or compared against golden
//     trajectories.
//   * Restarts: cancellation also stops the restart schedule — the active
//     run is merged and no further restart begins.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <type_traits>
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
  double timeLimitSec = 0.0;      ///< secondary wall-clock cap (0 = uncapped)
  std::uint64_t seed = 42;
  /// Cooperative cancellation, checked once per sweep (see the header
  /// comment for the contract).  Not owned; may be null.
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

// ---------------------------------------------------------------------------
// Evaluation seams.  The annealing loop below is written against a small
// evaluator interface so that one implementation serves both cost styles:
//
//   full(s)     evaluate `s` and make it the evaluator's committed state
//   propose(s)  cost of a candidate next to the committed state
//   accept()    the candidate becomes the committed state
//   reject()    the candidate is discarded
//   rebase(s)   re-anchor the committed state to `s` (after the calibration
//               walk wandered away from it)
//
// `ScratchEval` is the classic stateless style — every propose re-derives
// the cost from the state, accept/reject/rebase are no-ops.  The costs it
// produces and the RNG stream it induces are exactly those of the historic
// hand-rolled loops.
//
// `IncrementalEval` drives the propose/commit/rollback protocol of a delta-
// evaluating cost model (cost/cost_model.h is the library's implementation,
// but any type with reset/propose/commit/rollback/invalidate/infeasibleCost
// fits): states are decoded to placements, the model re-reduces only what a
// move dirtied, and a rejected move is a rollback instead of a state copy +
// full recompute.  `decode` returns anything optional-like (contextually
// bool + dereferenceable): `std::optional<Placement>` by value, or — the
// allocation-free style every backend uses — a `const Placement*` aliasing
// a scratch buffer.  An aliased placement is only valid until the NEXT
// decode call, so the evaluator consumes it immediately and the model must
// copy what it keeps (CostModel diff-copies changed rects).  Decoding may
// fail (empty optional / nullptr); such states cost
// `model.infeasibleCost()`, and accepting one drops the model's committed
// state so the next feasible propose re-seeds it.

namespace detail {

/// Move-seam detection: a move callable is either the classic copying style
/// `State(const State&, Rng&)` or the allocation-free in-place style
/// `void(State&, Rng&)`.  The in-place style receives a buffer that already
/// holds a copy of the current state, perturbs it, and the loop swaps the
/// buffer in on acceptance — the steady-state move loop then performs no
/// state construction at all.  Both styles draw the same RNG stream for the
/// same perturbation logic, so trajectories are identical.
template <class MoveF, class State>
inline constexpr bool kInPlaceMove =
    std::is_void_v<std::invoke_result_t<MoveF&, State&, Rng&>>;

template <class CostF>
struct ScratchEval {
  CostF& cost;
  template <class State> double full(const State& s) { return cost(s); }
  template <class State> double propose(const State& s) { return cost(s); }
  template <class State> void rebase(const State&) {}
  void accept() {}
  void reject() {}
};

/// A decoder (any callable with extra members) can opt in to the hinted
/// `model.propose(p, moved)` fast path by exposing two members:
///
///   movedModules()  ids of the modules whose rects may differ from the
///                   model's COMMITTED placement — a superset is fine
///                   (duplicates and unmoved entries are allowed, missing
///                   moved modules are not).  Decoders accumulate this
///                   across rejected moves: each decode appends what it
///                   touched relative to its own previous decode, which by
///                   the triangle property covers the committed diff.
///   committed()     notification that the model's committed state caught
///                   up with the decoder's LAST SUCCESSFUL decode (a full
///                   re-seed or an accepted feasible move) — the moved
///                   accumulator restarts from empty.
///
/// When the model invalidates (infeasible accept), no notification fires:
/// the model is unseeded, hinted propose falls back to a full evaluation
/// until the next commit re-seeds it — at which point committed() fires
/// and the accumulator resets.
template <class Model, class DecodeF>
struct IncrementalEval {
  Model& model;
  DecodeF& decode;
  bool pendingInfeasible = false;

  void notifyCommitted() {
    if constexpr (requires { decode.committed(); }) decode.committed();
  }

  template <class State> double full(const State& s) {
    auto placed = decode(s);
    if (!placed) {
      model.invalidate();
      return model.infeasibleCost();
    }
    double c = model.reset(*placed);
    notifyCommitted();
    return c;
  }
  template <class State> double propose(const State& s) {
    auto placed = decode(s);
    pendingInfeasible = !placed;
    if (!placed) return model.infeasibleCost();
    if constexpr (requires {
                    model.propose(*placed, decode.movedModules());
                    decode.committed();
                  }) {
      return model.propose(*placed, decode.movedModules());
    } else {
      return model.propose(*placed);
    }
  }
  template <class State> void rebase(const State& s) { full(s); }
  void accept() {
    if (pendingInfeasible) {
      model.invalidate();
    } else {
      model.commit();
      notifyCommitted();
    }
  }
  void reject() {
    if (!pendingInfeasible) model.rollback();
  }
};

/// The one acceptance loop behind both the calibration walk and the
/// Metropolis sweeps: propose `count` moves from `cur`, let `acceptMove`
/// decide on each delta, and keep the evaluator's committed state in step
/// with `cur`.  `onAccept` runs after `cur`/`curCost` advanced.  `moveBuf`
/// is the persistent candidate buffer of the in-place move style: the loop
/// copy-assigns `cur` into it (reusing its heap storage), perturbs in
/// place, and swaps on acceptance — no per-move construction, no per-move
/// copy of the decoded placement, identical values either way.
template <class State, class Eval, class MoveF, class AcceptF, class OnAcceptF>
void annealPass(State& cur, double& curCost, std::size_t count, Eval& eval,
                MoveF& move, Rng& rng, State& moveBuf, AcceptF&& acceptMove,
                OnAcceptF&& onAccept) {
  for (std::size_t i = 0; i < count; ++i) {
    if constexpr (kInPlaceMove<MoveF, State>) {
      moveBuf = cur;
      move(moveBuf, rng);
      double nextCost = eval.propose(moveBuf);
      if (acceptMove(nextCost - curCost)) {
        eval.accept();
        using std::swap;
        swap(cur, moveBuf);
        curCost = nextCost;
        onAccept();
      } else {
        eval.reject();
      }
    } else {
      State next = move(cur, rng);
      double nextCost = eval.propose(next);
      if (acceptMove(nextCost - curCost)) {
        eval.accept();
        cur = std::move(next);
        curCost = nextCost;
        onAccept();
      } else {
        eval.reject();
      }
    }
  }
}

// ---------------------------------------------------------------------------
// AnnealDriver — the one annealing loop of the library, as a resumable state
// machine.
//
// Every entry point runs on it: `anneal` (one run, restarts off),
// `annealWithRestarts` and every backend session (restarts on).  A run
// seeds its RNG, calibrates t0 with a 50-move accept-all walk, then cools
// geometrically until it freezes, exhausts its leftover sweep budget or its
// time cap; with restarts on, a finished run's leftover budget funds the
// next run on `nextRestartSeed`.  The caller advances the schedule in
// sweep-sized steps it can pause between.  That is the seam the plan
// executor (runtime/plan_executor.h) needs: K replicas advance in
// fixed-length rounds, exchange states at the barrier, and resume with
// their RNG, temperature and incremental evaluator state intact.
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
template <class State, class Eval, class MoveF>
class AnnealDriver {
 public:
  /// `restarts = false` ends the schedule with its first run: the plain
  /// `anneal` loop.
  AnnealDriver(const State& init, Eval eval, MoveF move,
               const AnnealOptions& options, double tempScale = 1.0,
               bool restarts = true)
      : eval_(std::forward<Eval>(eval)),
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
        timed_(options.timeLimitSec > 0.0),
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
        // Cancellation ends the whole schedule: merge the active run so
        // `finalize()` reports best-so-far, and never start another
        // restart.  The evaluator/scratch state is at a sweep boundary,
        // hence consistent and reusable.
        mergeRun();
        finished_ = true;
        break;
      }
      if (t_ > tFreeze_ &&
          (runBudget_ == 0 || runResult_.sweeps < runBudget_) &&
          (!timed_ || runClock_.seconds() < runTimeCap_)) {
        annealPass(cur_, curCost_, options_.movesPerTemp, eval_, move_, rng_,
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

  /// Re-anchors the evaluator after `currentState()` was mutated externally
  /// (a replica exchange or a cross-backend reseed): full re-evaluation,
  /// best tracking, no RNG consumed — so exchanges at deterministic rounds
  /// keep the whole trajectory a pure function of the schedule.
  void reanchor() {
    curCost_ = eval_.full(cur_);
    if (!finished_ && curCost_ < runResult_.bestCost) {
      runResult_.best = cur_;
      runResult_.bestCost = curCost_;
    }
  }

  /// Swaps the current states of two replicas of the SAME problem (their
  /// evaluators re-anchor; RNG streams stay put).
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
    runClock_.reset();
    cur_ = init_;
    curCost_ = eval_.full(cur_);
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
    annealPass(probe_, probeCost, 50, eval_, move_, rng_, moveBuf_,
               [&](double delta) {
                 if (delta > 0.0) {
                   upSum += delta;
                   ++upCount;
                 }
                 return true;
               },
               [] {});
    eval_.rebase(cur_);  // the calibration walk moved the committed state
    double meanUp = upCount ? upSum / static_cast<double>(upCount) : 1.0;
    if (meanUp <= 0.0) meanUp = 1.0;
    t_ = -meanUp / std::log(options_.initialAcceptance);
    t_ *= tempScale_;
    tFreeze_ = t_ * options_.freezeRatio;

    runBudget_ = sweepCapped_ ? options_.maxSweeps - best_.sweeps : 0;
    if (timed_) {
      runTimeCap_ = std::max(1e-9, options_.timeLimitSec - clock_.seconds());
    }
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
    // A restart is funded only while every *active* budget has leftover;
    // with no budget at all a single (freeze-terminated) run is the answer.
    // A run of zero sweeps (budget rounded to nothing) cannot make
    // progress; stop instead of spinning.
    bool sweepsLeft = sweepCapped_ && best_.sweeps < options_.maxSweeps;
    bool timeLeft = timed_ && clock_.seconds() < options_.timeLimitSec;
    if (!restarts_ || (sweepCapped_ && !sweepsLeft) || (timed_ && !timeLeft) ||
        (!sweepCapped_ && !timed_) || runResult_.sweeps == 0) {
      finished_ = true;
      return;
    }
    beginRun();
  }

  Eval eval_;
  MoveF move_;
  AnnealOptions options_;  // movesPerTemp resolved once at construction
  double tempScale_;
  Stopwatch clock_;     // whole-schedule wall clock
  Stopwatch runClock_;  // active run's wall clock (secondary time cap)

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
  double runTimeCap_ = 0.0;     // active run's leftover wall clock
  std::uint64_t seed_;
  const bool sweepCapped_;
  const bool timed_;
  const bool restarts_;
  bool finished_ = false;
};

}  // namespace detail

/// Runs simulated annealing from `init`.
///
/// `cost`:  double(const State&) — smaller is better.
/// `move`:  either State(const State&, Rng&) — proposes a neighbouring
///          state by value (the classic copying style) — or
///          void(State&, Rng&) — perturbs IN PLACE a buffer already holding
///          a copy of the current state.  The in-place style keeps the
///          steady-state move loop free of heap allocations (the engine
///          swaps the persistent buffer in on acceptance); both styles
///          produce bit-identical trajectories for the same perturbation
///          logic.
template <class State, class CostF, class MoveF>
AnnealResult<State> anneal(State init, CostF&& cost, MoveF&& move,
                           const AnnealOptions& opt) {
  detail::AnnealDriver<State, detail::ScratchEval<CostF>, MoveF&> driver(
      init, {cost}, move, opt, 1.0, /*restarts=*/false);
  return driver.finalize();
}

/// Repeats annealing runs (freshly seeded each round) until the sweep budget
/// is exhausted and returns the best result.  A single geometric schedule
/// often freezes long before a realistic budget ends; restarts turn the
/// leftover budget into independent attempts, which is the standard
/// industrial recipe for the plateau-heavy landscapes of floorplan codes.
///
/// Budget semantics: `options.maxSweeps` is the *total* sweep budget across
/// all restarts (primary, deterministic); `options.timeLimitSec`, when
/// positive, caps the total wall clock (secondary).  The caller's options
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
  detail::AnnealDriver<State, detail::ScratchEval<CostF>, MoveF&> driver(
      init, {cost}, move, options);
  return driver.finalize();
}

}  // namespace als
