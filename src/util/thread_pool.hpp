// Persistent worker pool for fanning independent simulation runs (one per
// seed / parameter point) across cores. Simulations share no mutable state,
// so the harness-level parallelism is embarrassingly parallel; the pool is
// the only concurrency primitive in the repository.
//
// Dispatch is parallel_for(): chunked atomic-counter dispatch. The caller
// publishes ONE job; every participant (the caller plus up to
// max_workers-1 pool threads) repeatedly grabs the next index range from
// an atomic cursor until the range is exhausted. No per-index
// std::function, no futures, no queue traffic — a steady-state dispatch
// performs zero heap allocations. The first exception wins, cancels the
// remaining unclaimed chunks, and is rethrown on the calling thread.
//
// The process-wide shared() pool is created once and reused by every
// static parallel_for call, so campaign code paths (harness::run_sweep,
// benches) never pay thread creation/teardown per call; worker-slot ids
// let callers keep per-thread state (e.g. a reusable World) across an
// entire loop.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dtn::util {

class ThreadPool {
 public:
  /// threads == 0 selects hardware_concurrency() (min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The process-wide pool (hardware_concurrency workers, created on first
  /// use, lives for the process). All static parallel_for calls run here.
  static ThreadPool& shared();

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Runs fn(worker, i) for i in [0, n), dispatched in index chunks over an
  /// atomic cursor, and blocks until all indices completed. The calling
  /// thread participates; at most `max_workers` threads total touch the job
  /// (0 = caller + every pool worker). `worker` is a dense participant slot
  /// in [0, max_workers): slot 0 is always the caller, so callers can keep
  /// per-worker state (scratch buffers, reusable Worlds) in a plain vector.
  /// The first exception thrown by fn cancels all unclaimed indices and is
  /// rethrown here; indices already claimed by other participants still
  /// finish. Concurrent parallel_for calls on one pool serialize; a NESTED
  /// call (fn parallelizing on the same pool) runs its loop inline on the
  /// calling participant rather than deadlocking on the dispatch lock.
  void parallel_for(std::size_t n, std::size_t max_workers,
                    const std::function<void(std::size_t, std::size_t)>& fn);

  /// Compatibility form: runs fn(i) for i in [0, n) across up to `threads`
  /// threads of the shared() pool and blocks until all done. Exceptions
  /// from tasks propagate (first one wins). threads == 0 selects
  /// hardware_concurrency(). Small jobs (n <= 1, or a single thread
  /// requested) run inline on the caller with no pool round-trip at all.
  static void parallel_for(std::size_t n, std::size_t threads,
                           const std::function<void(std::size_t)>& fn);

 private:
  /// One chunked-dispatch job, shared by every participant. Lives on the
  /// caller's stack for the duration of its parallel_for call.
  struct Job {
    std::atomic<std::size_t> next{0};      ///< first unclaimed index
    std::size_t n = 0;                     ///< total indices
    std::size_t chunk = 1;                 ///< indices claimed per grab
    std::size_t max_entrants = 0;          ///< participant cap (incl. caller)
    std::size_t entered = 0;               ///< participants so far (under mutex_)
    std::atomic<int> inside{0};            ///< participants currently running
    const std::function<void(std::size_t, std::size_t)>* fn = nullptr;
    std::exception_ptr error;              ///< first failure (under error_mutex)
    std::mutex error_mutex;
  };

  void worker_loop();
  /// Claims and runs chunks of `job` as participant slot `worker` until the
  /// cursor is exhausted (or an error cancelled the job).
  static void run_chunks(Job& job, std::size_t worker);

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable cv_;        ///< workers: job available or stop
  std::condition_variable done_cv_;   ///< caller: all participants left the job
  std::mutex dispatch_mutex_;         ///< serializes concurrent parallel_for calls
  Job* job_ = nullptr;                ///< current chunked job (under mutex_)
  std::uint64_t job_gen_ = 0;         ///< bumped per job so workers join once
  bool stop_ = false;
};

}  // namespace dtn::util
