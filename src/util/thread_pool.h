#ifndef HCPATH_UTIL_THREAD_POOL_H_
#define HCPATH_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace hcpath {

/// Work-stealing thread pool backing the parallel batch engines
/// (docs/PARALLELISM.md). Each worker owns a deque: it pushes and pops its
/// own tasks LIFO (cache-warm) and steals FIFO from siblings when empty, so
/// skewed workloads (one giant cluster among many small ones) keep every
/// core busy without a contended central queue.
///
/// Blocking waits (`ParallelFor`) lend the calling thread to the pool: the
/// caller drains queued tasks instead of sleeping, which both adds a worker
/// and makes nested ParallelFor calls from inside a task deadlock-free.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers; 0 means std::thread::hardware_concurrency.
  explicit ThreadPool(size_t num_threads = 0);

  /// Joins all workers; pending tasks are completed first.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_workers() const { return workers_.size(); }

  /// Enqueues one fire-and-forget task (round-robin across worker deques;
  /// a worker submitting from inside a task pushes to its own deque).
  void Submit(std::function<void()> fn);

  /// Runs fn(0), ..., fn(n - 1) across the pool and the calling thread,
  /// returning when all have finished and every worker task it queued has
  /// exited, so nothing of the call outlives it. If any invocations throw,
  /// the exception of the lowest index is rethrown (deterministic
  /// regardless of scheduling). Runs inline when the pool has no workers or
  /// n <= 1.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  /// Pops and runs one queued task if any is available; used by blocked
  /// callers to help instead of sleeping. Returns false when idle.
  bool TryRunOneTask();

  /// Resolves a user-facing thread count: 0 = hardware_concurrency
  /// (minimum 1), otherwise the requested value.
  static size_t EffectiveThreads(int requested);

  /// Process-wide shared pool with `num_workers` workers, created lazily
  /// and reused across calls (rebuilding only when a different size is
  /// requested), so engines don't pay thread spawn/join per batch.
  /// Concurrent holders of the same pool simply interleave their tasks.
  static std::shared_ptr<ThreadPool> Shared(size_t num_workers);

  /// Resolves BatchOptions::num_threads into an engine pool: nullptr for a
  /// single-threaded run (num_threads == 1, or one hardware thread), else
  /// the shared pool with one worker fewer than the target — the
  /// ParallelFor caller works too, so N compute threads = N - 1 workers
  /// plus the calling thread.
  static std::shared_ptr<ThreadPool> ForNumThreads(int num_threads);

 private:
  struct TaskQueue {
    std::mutex mu;
    std::deque<std::function<void()>> tasks;
  };

  void WorkerLoop(size_t self);
  /// Pops from queue `qi`: back for the owner (LIFO), front for a thief.
  bool Pop(size_t qi, bool owner, std::function<void()>* out);
  /// One scan over all queues starting at `home`; true if a task ran.
  bool RunOneFrom(size_t home);

  std::vector<std::unique_ptr<TaskQueue>> queues_;
  std::vector<std::thread> workers_;
  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  std::atomic<uint64_t> pending_{0};
  std::atomic<uint64_t> next_queue_{0};
  bool stop_ = false;  // guarded by wake_mu_
};

}  // namespace hcpath

#endif  // HCPATH_UTIL_THREAD_POOL_H_
