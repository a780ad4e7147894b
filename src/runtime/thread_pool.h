// Deterministic fork-join thread pool — the bottom of the runtime layer
// (thread pool -> plan executor -> replica sessions -> backends).
//
// The pool is intentionally work-stealing-free: `parallelFor(count, fn)`
// runs `fn(0) .. fn(count-1)` where each index is claimed exactly once from
// a single shared counter.  Which *thread* runs which index varies run to
// run, but every index's work is required to be a pure function of the
// index (the plan executor guarantees this by giving each cell its own
// seed, budget and result slot), so the *values* produced are independent
// of scheduling, thread count, and machine load.  That is the property the
// `numThreads = 1` vs `numThreads = N` bit-identity tests lean on.
//
// Workers are persistent: construction spawns `threadCount() - 1` workers
// (the caller of parallelFor is the remaining participant, which makes a
// 1-thread pool run fully inline — no spawn, no synchronization).  One
// fork-join runs at a time; concurrent parallelFor calls serialize.
//
// Tasks are not told which thread runs them: the plan executor keeps no
// per-thread state.  Its two routes and its per-cell bank each pay for
// themselves (~2 KB per finished cell against ~192 KB per live cell; the
// bank warms the exact allocation gates — runtime/plan_executor.h).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace als {

class ThreadPool {
 public:
  /// `numThreads` counts the calling thread: a pool of size N spawns N-1
  /// workers.  0 picks the hardware concurrency (at least 1).
  explicit ThreadPool(std::size_t numThreads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total threads that participate in a parallelFor (workers + caller).
  std::size_t threadCount() const { return workers_.size() + 1; }

  /// The `numThreads` resolution rule (0 = hardware concurrency, at least
  /// 1) — exported so drivers and benches report the same count the pool
  /// will actually use.
  static std::size_t resolveThreadCount(std::size_t numThreads);

  /// Runs `fn(i)` for every i in [0, count), blocking until all complete.
  /// `fn` must not touch shared mutable state except through its own index.
  /// If any invocation throws, the exception thrown by the smallest index
  /// is rethrown on the calling thread after the join.
  void parallelFor(std::size_t count,
                   const std::function<void(std::size_t)>& fn);

 private:
  void workerLoop();
  void runJob();  // claim indices until the job is exhausted

  std::vector<std::thread> workers_;

  std::mutex mutex_;                 // guards all fields below
  std::condition_variable wake_;     // workers: new job or shutdown
  std::condition_variable done_;     // caller: all indices finished
  std::mutex forkJoinMutex_;         // serializes concurrent parallelFor
  const std::function<void(std::size_t)>* job_ = nullptr;
  std::size_t jobCount_ = 0;         // indices in the current job
  std::size_t nextIndex_ = 0;        // next unclaimed index
  std::size_t pendingIndices_ = 0;   // claimed-or-unclaimed, not yet finished
  std::uint64_t generation_ = 0;     // bumps once per job
  std::exception_ptr firstError_;    // error of the smallest failing index
  std::size_t firstErrorIndex_ = 0;
  bool shutdown_ = false;
};

}  // namespace als
