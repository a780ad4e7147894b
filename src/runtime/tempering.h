// Deterministic parallel tempering — the cooperative-search caller of the
// plan executor (runtime/plan_executor.h; thread pool -> plan executor ->
// replica sessions -> backends).
//
// A tempering run takes the SAME deterministic plan a restart portfolio
// takes (`makeRestartPlan`: numRestarts seed-scheduled budget slices) and
// runs it under the executor's ladder policy: replica i anneals with its t0
// multiplied by ladderRatio^i, all replicas advance in rounds of
// `exchangeInterval` sweeps, and at each round barrier adjacent ladder
// neighbours may swap their current states (`planExchanges`).  The runner
// forces the ladder policy whatever `options.tempering` says, and reports
// the per-replica accounting the plain portfolio result drops.
//
// Determinism: exchange decisions are a pure function of (round, replica
// seeds, costs, temperatures) computed on one thread between fork-joins,
// so the outcome is bit-identical for numThreads = 1 and numThreads = N —
// the property the Tempering suites in tests/runtime_test.cpp pin per
// backend.  With `exchangeInterval = 0` AND `ladderRatio = 1.0` a tempering
// run IS the independent-restart portfolio, bit for bit (see
// runtime/plan_executor.h for why both knobs are needed).
//
// Cross-backend seeding (`race` with options.crossSeed): at each round
// barrier the best replica donates its best placement, and every OTHER
// backend's ladder re-seeds its worst still-running replica from it
// through the from_placement converters (seqpair/from_placement.h,
// bstar/from_placement.h).  Backends whose encodings cannot adopt a flat
// placement (slicing, hbstar) keep their state — reseedFromPlacement
// returns false and nothing changes.
//
// A ladder takes the rounds route, which keeps every replica alive (~192 KB
// per live cell on ami49 hbstar, against ~2 KB per finished cell on the
// barrier-free route); the optional per-cell bank keeps their buffers warm
// across runs, which the exact round-loop allocation gate relies on.
#pragma once

#include <span>
#include <vector>

#include "runtime/plan_executor.h"
#include "runtime/thread_pool.h"

namespace als {

/// Aggregate outcome; `result` follows the portfolio conventions
/// (winning replica's placement, summed counters, wall-clock seconds,
/// restartsRun = replica count, bestRestart = winning schedule index).
struct TemperingOutcome {
  EngineResult result;
  EngineBackend backend = EngineBackend::FlatBStar;
  std::vector<TemperingReplica> replicas;
  std::size_t rounds = 0;             ///< round barriers executed
  std::size_t exchangesAccepted = 0;  ///< total accepted swaps
  std::size_t reseeds = 0;            ///< total cross-backend seeds adopted
};

/// Runs coupled-replica tempering over a deterministic thread pool.  Const
/// and stateless per call, like PortfolioRunner.
class TemperingRunner {
 public:
  /// Pool-per-run mode: each run sizes a pool from `options.numThreads`.
  TemperingRunner() = default;
  /// Shared-pool mode (caller keeps ownership; numThreads is ignored).
  explicit TemperingRunner(ThreadPool* pool) : pool_(pool) {}

  /// One backend, `options.numRestarts` replicas on one ladder.  An
  /// optional TemperingScratch gives replica i persistent warm buffers
  /// across runs (grown to the replica count on the calling thread);
  /// without one each replica owns its buffers.  Throws
  /// std::invalid_argument on a refused knob.
  TemperingOutcome run(const Circuit& circuit, EngineBackend backend,
                       const EngineOptions& options,
                       TemperingScratch* scratch = nullptr) const;

  /// Races one ladder per backend (backend-major replica grid, like
  /// PortfolioRunner::race), with cross-backend seeding between ladders
  /// when `options.crossSeed`.  Winner by (cost, seed, position in
  /// `backends`).  Throws std::invalid_argument when `backends` is empty.
  TemperingOutcome race(const Circuit& circuit,
                        std::span<const EngineBackend> backends,
                        const EngineOptions& options,
                        TemperingScratch* scratch = nullptr) const;

 private:
  TemperingOutcome runLadders(const Circuit& circuit,
                              std::span<const EngineBackend> backends,
                              const EngineOptions& options,
                              TemperingScratch* scratch) const;

  ThreadPool* pool_ = nullptr;
};

}  // namespace als
