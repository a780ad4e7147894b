// Restart portfolios, backend races and batches — the plain-result callers
// of the plan executor (runtime/plan_executor.h; thread pool -> plan
// executor -> replica sessions -> backends).
//
// A portfolio run splits one deterministic sweep budget into
// `options.numRestarts` slices, each annealing from its own seed of the
// shared restart schedule (anneal/annealer.h), and reduces to the best slice
// with a total-order tie-break on (cost, seed, backend).  The runners below
// only choose the grid — one circuit x one backend, one circuit x several
// backends, or several circuits x one backend — and hand it to the
// executor, which fans the cells over a deterministic ThreadPool.  The
// outcome is bit-identical for `numThreads = 1` and `numThreads = N` — the
// property tests/runtime_test.cpp asserts per backend.
//
// `options.tempering` selects the executor's ladder policy for every
// runner alike: the slices become coupled parallel-tempering replicas
// (runtime/tempering.h exposes the per-replica accounting).
//
// `PortfolioRunner::run` is the library's one-backend placement call: at
// `numRestarts = 1` it is a one-slice plan, bit-identical to one session
// run to completion.  Untempered runs take the barrier-free route (~2 KB
// per finished cell, against ~192 KB per live cell on the rounds route)
// on session-owned buffers; the per-cell bank stays for callers that keep
// sessions warm across plans (tempering, serve).
//
// `movesPerTemp == 0` auto-scaling is resolved ONCE per circuit (from its
// module count, the hint every registered backend uses) and the resolved
// value is stamped into each slice, so split-budget restarts anneal on
// exactly the schedule the equivalent sequential run would have used.
//
// `timeLimitSec`, when positive, arms a deadline on each slice's session
// when that session is built, so what it caps depends on the executor's
// route.  On the barrier-free route (plain portfolios, races and batches)
// a slice is built when a worker picks it up, so each slice gets its own
// `timeLimitSec` of wall clock; with fewer threads than slices the run can
// take about slices / threads times the cap.  On the rounds route
// (`tempering`, or a round hook) every slice is built before round 1, so
// all caps run concurrently and the whole run ends about `timeLimitSec`
// after it starts, however few the threads.  As everywhere else in the
// library, results under an active time cap are not reproducible.
#pragma once

#include <span>
#include <vector>

#include "engine/placement_engine.h"
#include "runtime/plan_executor.h"
#include "runtime/thread_pool.h"

namespace als {

/// Runs restart portfolios and backend races over a thread pool.  Const and
/// stateless per call: one runner may serve concurrent callers when
/// constructed over distinct pools.
class PortfolioRunner {
 public:
  /// Pool-per-run mode: each run sizes a pool from `options.numThreads`.
  PortfolioRunner() = default;

  /// Shared-pool mode: all runs use `pool` (caller keeps ownership and the
  /// pool must outlive the runner); `options.numThreads` is then ignored.
  explicit PortfolioRunner(ThreadPool* pool) : pool_(pool) {}

  /// Runs the restart portfolio of one backend; `result.placement` is the
  /// winning slice's placement, counters aggregate over all slices,
  /// `seconds` is the portfolio's wall clock.  Throws std::invalid_argument
  /// on a refused knob (engine/knobs.h).
  EngineResult run(const Circuit& circuit, EngineBackend backend,
                   const EngineOptions& options) const;

  struct RaceOutcome {
    EngineResult result;  ///< winning backend's full portfolio result
    EngineBackend backend = EngineBackend::FlatBStar;
  };

  /// Races full restart portfolios of several backends over one pool; the
  /// backend x restart grid saturates the pool.  Winner by (cost, seed,
  /// position in `backends`).  Throws std::invalid_argument when `backends`
  /// is empty.
  RaceOutcome race(const Circuit& circuit,
                   std::span<const EngineBackend> backends,
                   const EngineOptions& options) const;

 private:
  ThreadPool* pool_ = nullptr;
};

/// Places many circuits with one backend/options over one pool.  The
/// circuit x restart grid keeps all threads busy even when `numRestarts`
/// is small.  Results are index-aligned with `circuits` and equal each
/// circuit's own `PortfolioRunner::run` (tempering included), except that
/// each result's `seconds` is the summed annealing time of that circuit's
/// slices (the batch shares one wall clock).  Throws std::invalid_argument
/// on a knob `backend` refuses (engine/knobs.h).
class BatchPlacer {
 public:
  BatchPlacer() = default;
  explicit BatchPlacer(ThreadPool* pool) : pool_(pool) {}

  std::vector<EngineResult> placeAll(std::span<const Circuit> circuits,
                                     EngineBackend backend,
                                     const EngineOptions& options) const;

 private:
  ThreadPool* pool_ = nullptr;
};

}  // namespace als
