#include "runtime/serve.h"

#include <algorithm>
#include <condition_variable>
#include <thread>

#include "engine/knobs.h"
#include "io/benchmark_format.h"
#include "runtime/plan_executor.h"
#include "runtime/thread_pool.h"
#include "util/stopwatch.h"

namespace als {

// --- private structs --------------------------------------------------------

struct ServeEngine::Slot {
  enum class State { Free, Pending, Running };
  State state = State::Free;
  std::uint64_t id = 0;
  Job job;
  CacheKey key;
  CancelToken cancel;  ///< cancel + deadlines; its reason is the outcome
  Stopwatch clock;  ///< reset at submit; latency = submit-to-completion
};

struct ServeEngine::Worker {
  std::thread thread;
  ThreadPool pool{1};     ///< plan rounds run inline on the worker
  TemperingScratch bank;  ///< per-cell warm buffers, reused across jobs

  // Reused per-job state (capacity persists across jobs):
  EngineResult result;
  EngineBackend resultBackend = EngineBackend::FlatBStar;
};

struct ServeEngine::Impl {
  std::mutex mutex;
  std::condition_variable workCv;
  std::vector<std::unique_ptr<Slot>> slots;  ///< pending + running jobs
  std::vector<std::size_t> fifo;   ///< ring of pending slot indices
  std::size_t fifoHead = 0;
  std::size_t fifoCount = 0;
  std::uint64_t nextId = 1;
  ServeStats stats;
  bool stopping = false;
  std::vector<std::unique_ptr<Worker>> workers;
};

// --- lifecycle --------------------------------------------------------------

ServeEngine::ServeEngine(const ServeOptions& options)
    : options_(options),
      cache_(std::make_unique<ResultCache>(options.cacheDir,
                                           options.cacheCapacity)),
      impl_(std::make_unique<Impl>()) {
  options_.workers = std::max<std::size_t>(1, options_.workers);
  options_.queueCapacity = std::max<std::size_t>(1, options_.queueCapacity);
  options_.progressInterval =
      std::max<std::size_t>(1, options_.progressInterval);
  impl_->slots.reserve(options_.queueCapacity);
  for (std::size_t i = 0; i < options_.queueCapacity; ++i) {
    impl_->slots.push_back(std::make_unique<Slot>());
  }
  impl_->fifo.resize(options_.queueCapacity);
  impl_->workers.reserve(options_.workers);
  for (std::size_t i = 0; i < options_.workers; ++i) {
    impl_->workers.push_back(std::make_unique<Worker>());
    Worker* worker = impl_->workers.back().get();
    worker->thread = std::thread([this, worker] { workerLoop(*worker); });
  }
}

ServeEngine::~ServeEngine() { shutdown(); }

void ServeEngine::shutdown() {
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    if (impl_->stopping) return;
    impl_->stopping = true;
  }
  impl_->workCv.notify_all();
  for (auto& worker : impl_->workers) {
    if (worker->thread.joinable()) worker->thread.join();
  }
}

// --- submission / control ---------------------------------------------------

ServeEngine::Submission ServeEngine::submit(Job job) {
  Submission out;
  out.error = refusal(job.backend, job.options);
  if (!out.error.empty()) return out;
  // The serve layer's reproducibility invariants, applied BEFORE the key is
  // computed (both knobs are excluded from the canonical options string):
  // no wall-clock stopping rule, parallelism across jobs rather than within.
  // A one-backend job never cross-seeds, so `cross` must not split the key.
  job.options.timeLimitSec = 0.0;
  job.options.numThreads = 1;
  job.options.crossSeed = EngineOptions{}.crossSeed;
  std::string keyScratch;
  out.key =
      makeCacheKey(job.circuitText, job.backend, job.options, keyScratch);

  std::lock_guard<std::mutex> lock(impl_->mutex);
  Slot* slot = nullptr;
  std::size_t index = 0;
  if (!impl_->stopping) {
    for (std::size_t i = 0; i < impl_->slots.size(); ++i) {
      if (impl_->slots[i]->state == Slot::State::Free) {
        slot = impl_->slots[i].get();
        index = i;
        break;
      }
    }
  }
  if (slot == nullptr) {
    ++impl_->stats.rejected;
    return out;  // accepted = false
  }
  slot->state = Slot::State::Pending;
  slot->id = impl_->nextId++;
  slot->job = std::move(job);
  slot->key = out.key;
  slot->cancel.reset();
  // Measured from submit: a queued job burns its deadline waiting, which is
  // exactly what a client's latency budget means.
  slot->cancel.setDeadlineAfter(slot->job.deadlineSeconds);
  slot->clock.reset();
  impl_->fifo[(impl_->fifoHead + impl_->fifoCount) % impl_->fifo.size()] =
      index;
  ++impl_->fifoCount;
  ++impl_->stats.submitted;
  out.accepted = true;
  out.id = slot->id;
  impl_->workCv.notify_one();
  return out;
}

bool ServeEngine::cancel(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  for (const std::unique_ptr<Slot>& slot : impl_->slots) {
    if (slot->state != Slot::State::Free && slot->id == id) {
      slot->cancel.cancel();
      return true;
    }
  }
  return false;
}

ServeStats ServeEngine::stats() const {
  ServeStats out;
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    out = impl_->stats;
  }
  // Sequential lock acquisition (never nested) — the cache has its own.
  const ResultCache::Stats cacheStats = cache_->stats();
  out.quarantined = cacheStats.quarantined;
  out.evicted = cacheStats.evicted;
  out.memoryOnly = cacheStats.memoryOnly;
  return out;
}

// --- worker side ------------------------------------------------------------

void ServeEngine::workerLoop(Worker& worker) {
  for (;;) {
    Slot* slot = nullptr;
    {
      std::unique_lock<std::mutex> lock(impl_->mutex);
      impl_->workCv.wait(lock, [&] {
        return impl_->fifoCount > 0 || impl_->stopping;
      });
      if (impl_->fifoCount == 0) return;  // stopping and drained
      slot = impl_->slots[impl_->fifo[impl_->fifoHead]].get();
      impl_->fifoHead = (impl_->fifoHead + 1) % impl_->fifo.size();
      --impl_->fifoCount;
      slot->state = Slot::State::Running;
    }
    executeJob(worker, *slot);
    {
      std::lock_guard<std::mutex> lock(impl_->mutex);
      // Release the callbacks now (they may close over connection state the
      // caller wants freed) and the slot last, so a resubmission can never
      // observe a Free slot with a stale job in it.
      slot->job.onProgress = nullptr;
      slot->job.onDone = nullptr;
      slot->state = Slot::State::Free;
    }
  }
}

/// Runs one parsed job through the plan executor on the worker's pool and
/// bank.  The round hook enforces the sweep deadline and reports PROGRESS at
/// the first barrier at or past each `progressInterval` multiple of sweeps
/// per cell: every round of a restart job, whose round IS the interval, and
/// whichever rounds cross a multiple when a tempering job's exchange
/// interval sets its rounds.  Paused sessions resume bit-identically, so the
/// outcome equals `PortfolioRunner::run` on the same options.
EngineResult ServeEngine::computeJob(Worker& worker, Slot& slot,
                                     const Circuit& circuit,
                                     const EngineOptions& options) {
  const ProgressFn& onProgress = slot.job.onProgress;
  const std::size_t deadlineSweeps = slot.job.deadlineSweeps;
  const std::size_t interval = options_.progressInterval;
  std::size_t reported = 0;  // progressInterval multiples reported so far
  std::size_t events = 0;
  const RoundHook hook{interval, [&](const RoundStatus& status) {
    // Sweep-budget deadline, round-granular: once the job's TOTAL sweeps
    // cross the budget, stop — the still-active sessions wind down during
    // the next round's sweep checks (same bound as a client CANCEL).
    if (deadlineSweeps > 0 && status.sweepsDone >= deadlineSweeps) {
      slot.cancel.stop(StopReason::Deadline);
    }
    const std::size_t reached = status.round * status.roundSweeps / interval;
    if (reached > reported) {
      reported = reached;
      if (onProgress) onProgress(++events, status.sweepsDone, status.bestCost);
    }
  }};
  const EngineBackend backend = slot.job.backend;
  PlanOutcome out = executePlan(&worker.pool, {.circuits = {&circuit, 1},
                                               .backends = {&backend, 1},
                                               .options = options,
                                               .hook = &hook,
                                               .bank = &worker.bank});
  return std::move(out.results[0]);
}

void ServeEngine::executeJob(Worker& worker, Slot& slot) {
  JobOutcome outcome;
  outcome.id = slot.id;
  outcome.key = slot.key;
  outcome.backend = slot.job.backend;

  const bool hit = cache_->fetch(slot.key, worker.resultBackend, worker.result);
  if (hit) {
    outcome.result = &worker.result;
    outcome.cacheHit = true;
    // A hit whose token was stopped BY a deadline still completes as a
    // plain hit: the full answer is already known, serving it costs one
    // copy, and reporting DEADLINE for an instant result would be absurd.
    outcome.cancelled = slot.cancel.reason() == StopReason::Cancelled;
  } else {
    ParseResult parsed = parseBenchmark(slot.job.circuitText);
    if (!parsed.ok()) {
      outcome.error = std::move(parsed.error);
    } else {
      Stopwatch computeClock;
      EngineOptions options = slot.job.options;
      options.cancel = &slot.cancel;
      worker.result = computeJob(worker, slot, parsed.circuit, options);
      worker.result.seconds = computeClock.seconds();
      outcome.result = &worker.result;
      // Deadline wins precedence: its stop is the engine's doing, not the
      // client's, and the wire reports it as its own status.
      const StopReason why = slot.cancel.reason();
      outcome.deadlineExpired = why == StopReason::Deadline;
      outcome.cancelled = why == StopReason::Cancelled;
      // Cancelled and deadlined results are best-so-far snapshots, not pure
      // functions of the key — never cache them (the cache-correctness
      // contract).
      if (!outcome.cancelled && !outcome.deadlineExpired) {
        cache_->store(slot.key, slot.job.backend, worker.result);
      }
    }
  }
  outcome.latencySeconds = slot.clock.seconds();

  {
    // Stats are committed BEFORE onDone so a client that saw its RESULT
    // observes them included in the next STATS reply.  The id is retired in
    // the same critical section: once a client can observe completion,
    // cancel(id) must report the job unknown rather than flag a slot that
    // is merely awaiting reuse.
    std::lock_guard<std::mutex> lock(impl_->mutex);
    slot.id = 0;
    ++impl_->stats.completed;
    if (outcome.cacheHit) {
      ++impl_->stats.cacheHits;
    } else if (outcome.error.empty()) {
      ++impl_->stats.cacheMisses;
    }
    if (outcome.deadlineExpired) {
      ++impl_->stats.deadlineExpired;
    } else if (outcome.cancelled) {
      ++impl_->stats.cancelled;
    }
  }
  if (slot.job.onDone) slot.job.onDone(outcome);
}

}  // namespace als
