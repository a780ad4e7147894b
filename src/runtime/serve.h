// ServeEngine — the long-running placement service behind tools/als_serve,
// socket-free so tests and in-process embedders drive it directly.
//
// Jobs (raw ALSBENCH text + backend + EngineOptions) are admission-
// controlled into a bounded slot table: `submit` either accepts — returning
// the job id and its content-addressed `CacheKey` — or rejects immediately
// when all slots are taken (the backpressure signal a loaded daemon gives
// its clients).  Accepted jobs are executed FIFO by a fixed crew of worker
// threads; each worker owns a warm per-cell `TemperingScratch` bank and a
// one-thread `ThreadPool`, so parallelism comes from concurrent JOBS, not
// from threads within a job — and because every run is deterministic and
// thread-count invariant, N concurrent clients observe bit-identical
// per-job placements to a lone client (pinned by tests/serve_test.cpp and
// the als_replay harness).
//
// Execution of one job:
//   1. `ResultCache::fetch` on the job's key — a hit completes the job
//      without even parsing the circuit (the warm path the allocation gate
//      measures; `makeCacheKey` + fetch reuse caller buffers throughout).
//   2. On a miss the circuit is parsed; parse failures complete the job
//      with `JobOutcome::error`.
//   3. Every job — restart or tempering — runs through the plan executor
//      (runtime/plan_executor.h) on the worker's pool and bank, with a
//      round hook.  A restart job's round is `progressInterval` sweeps per
//      slice; a tempering job's round stays its `exchangeInterval` (its
//      result depends on it), or `progressInterval` when it never
//      exchanges.  `onProgress` fires at the first round barrier at or past
//      each `progressInterval` multiple of sweeps per cell — every round
//      for a restart job.  Paused sessions resume bit-identically, so the
//      outcome equals `PortfolioRunner::run` on the same options.
//   4. A successful, uncancelled result is stored in the cache; cancelled
//      and failed runs never are (they are not pure functions of the key).
//
// Cancellation (`cancel(id)`) sets the slot's CancelToken.  Running jobs
// observe it at sweep granularity (anneal/annealer.h) — every live session
// winds down within one round, so the acknowledgment latency is bounded by
// one progress round.  Pending jobs run trivially (the driver cancels
// during its first sweep check) and complete as cancelled.  Either way the
// job still delivers its `onDone`, flagged `cancelled`, and the worker's
// scratch bank stays warm and reusable — the next job on that worker is
// bit-identical to a fresh process.
//
// Deadlines ride the same CancelToken seam.  A job may carry a wall-clock
// deadline (`Job::deadlineSeconds`, measured from SUBMIT — queue wait
// counts, which is what a client's latency budget means) armed on the
// slot's token at submit, and/or a sweep budget (`Job::deadlineSweeps`,
// total sweeps across all slices or replicas) that the round hook enforces
// by stopping the token.  The token's latched reason is the outcome: an
// observed deadline flags `deadlineExpired` — precedence over plain
// `cancelled` — and, like a cancellation, the best-so-far result is
// delivered but NEVER cached.  A cache hit always completes as a hit: if
// the answer is already known, no deadline can make serving it wrong.  Both
// deadlines apply to every job; an uncapped job (`sweeps 0`) restarts until
// its wall deadline passes (anneal/annealer.h).
//
// A job's round hook needs the rounds route, which keeps every cell alive
// (~192 KB each on ami49 hbstar, against ~2 KB per finished cell without
// barriers) — hence `kMaxRestarts` = 1024 — and the worker's bank keeps
// the buffers warm from job to job.
//
// The serve layer forces `timeLimitSec = 0` and `numThreads = 1` on every
// job (reproducibility and the parallelism-across-jobs scheduling model;
// both knobs are excluded from the cache key for exactly this reason), and
// resets `crossSeed` to its default: a job runs one backend, and only a
// race of two can cross-seed, so the knob must not split the cache.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "engine/placement_engine.h"
#include "io/serve_protocol.h"
#include "runtime/result_cache.h"

namespace als {

struct ServeOptions {
  std::size_t workers = 1;        ///< job-executing threads (min 1)
  /// Total job slots (pending + running); `submit` rejects when exhausted.
  std::size_t queueCapacity = 16;
  /// Sweeps per slice (or replica) between progress events (min 1).
  std::size_t progressInterval = 32;
  std::string cacheDir;  ///< persisted result store ("" = memory-only)
  /// Result cache size cap, memory + disk entries together (0 = unbounded);
  /// eviction is deterministic LRU (runtime/result_cache.h).
  std::size_t cacheCapacity = 0;
};

class ServeEngine {
 public:
  /// Completion report, valid only during the `onDone` call (the result
  /// points into worker-owned storage).
  struct JobOutcome {
    std::uint64_t id = 0;
    CacheKey key;
    EngineBackend backend = EngineBackend::FlatBStar;
    const EngineResult* result = nullptr;  ///< null iff `error` nonempty
    bool cacheHit = false;
    bool cancelled = false;
    bool deadlineExpired = false;  ///< deadline cut the run short
    std::string error;      ///< circuit parse / job failure, empty = ok
    double latencySeconds = 0.0;  ///< submit-to-completion wall clock
  };

  using ProgressFn = std::function<void(std::size_t round,
                                        std::size_t sweepsDone,
                                        double bestCost)>;
  using DoneFn = std::function<void(const JobOutcome&)>;

  /// The wire's job (io/serve_protocol.h) plus its callbacks.
  struct Job : JobRequest {
    ProgressFn onProgress;  ///< per round; may be empty
    DoneFn onDone;          ///< exactly once per accepted job; may be empty
  };

  struct Submission {
    bool accepted = false;
    std::uint64_t id = 0;  ///< valid when accepted
    CacheKey key;          ///< computed when the job is admissible
    std::string error;     ///< a refused knob (engine/knobs.h): not queued
  };

  explicit ServeEngine(const ServeOptions& options);
  ~ServeEngine();  ///< shutdown(): drains pending jobs, joins workers

  ServeEngine(const ServeEngine&) = delete;
  ServeEngine& operator=(const ServeEngine&) = delete;

  /// Admission control + enqueue.  A knob the job's backend refuses is
  /// reported in `error` before anything is queued or counted.  Callbacks
  /// run on worker threads; they must not call back into submit/shutdown.
  Submission submit(Job job);

  /// Requests cancellation of a pending or running job; false when the id
  /// is unknown or already completed.  The job still reports through
  /// `onDone` (flagged cancelled) within one progress round.
  bool cancel(std::uint64_t id);

  /// Stops accepting work, drains every already-accepted job, joins the
  /// workers.  Idempotent.
  void shutdown();

  ServeStats stats() const;
  ResultCache& cache() { return *cache_; }

 private:
  struct Worker;
  struct Slot;

  void workerLoop(Worker& worker);
  void executeJob(Worker& worker, Slot& slot);
  EngineResult computeJob(Worker& worker, Slot& slot, const Circuit& circuit,
                          const EngineOptions& options);

  ServeOptions options_;
  std::unique_ptr<ResultCache> cache_;
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace als
