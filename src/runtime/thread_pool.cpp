#include "runtime/thread_pool.h"

#include <algorithm>

namespace als {

std::size_t ThreadPool::resolveThreadCount(std::size_t numThreads) {
  if (numThreads > 0) return numThreads;
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(std::size_t numThreads) {
  std::size_t total = resolveThreadCount(numThreads);
  workers_.reserve(total - 1);
  for (std::size_t i = 0; i + 1 < total; ++i) {
    workers_.emplace_back([this] { workerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  wake_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::parallelFor(std::size_t count,
                             const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  // A pool without workers (or a single task) runs inline on the caller:
  // same claims in the same order, no synchronization.
  if (workers_.empty() || count == 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }

  std::lock_guard<std::mutex> forkJoin(forkJoinMutex_);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job_ = &fn;
    jobCount_ = count;
    nextIndex_ = 0;
    pendingIndices_ = count;
    firstError_ = nullptr;
    firstErrorIndex_ = 0;
    ++generation_;
  }
  wake_.notify_all();

  runJob();  // the caller is a full participant

  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_.wait(lock, [this] { return pendingIndices_ == 0; });
    job_ = nullptr;
    jobCount_ = 0;
    error = firstError_;
    firstError_ = nullptr;
  }
  if (error) std::rethrow_exception(error);
}

void ThreadPool::workerLoop() {
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    wake_.wait(lock, [&] { return shutdown_ || generation_ != seen; });
    if (shutdown_) return;
    seen = generation_;
    // Claim-and-run until the current job is exhausted.  The lock is held
    // here and inside runJob except while an index's fn executes.
    lock.unlock();
    runJob();
    lock.lock();
  }
}

void ThreadPool::runJob() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (job_ != nullptr && nextIndex_ < jobCount_) {
    const std::size_t index = nextIndex_++;
    const std::function<void(std::size_t)>* fn = job_;
    lock.unlock();
    std::exception_ptr error;
    try {
      (*fn)(index);
    } catch (...) {
      error = std::current_exception();
    }
    lock.lock();
    if (error && (!firstError_ || index < firstErrorIndex_)) {
      firstError_ = error;
      firstErrorIndex_ = index;
    }
    if (--pendingIndices_ == 0) done_.notify_all();
  }
}

}  // namespace als
