#include "util/thread_pool.hpp"

#include <algorithm>

namespace dtn::util {

namespace {
/// Pool this thread is currently running a chunked job of (nullptr when
/// none). A nested parallel_for on the SAME pool would self-deadlock on
/// dispatch_mutex_ (the outer job holds it for its whole duration), so
/// re-entrant calls detect themselves here and run inline instead.
thread_local const ThreadPool* t_inside_pool = nullptr;
}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool(0);
  return pool;
}

void ThreadPool::worker_loop() {
  std::uint64_t seen_gen = 0;
  for (;;) {
    Job* job = nullptr;
    std::size_t slot = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [&] { return stop_ || (job_ != nullptr && job_gen_ != seen_gen); });
      if (job_ != nullptr && job_gen_ != seen_gen) {
        // Join the chunked job at most once per generation; late wakers
        // beyond the entrant cap just remember the generation and re-wait.
        seen_gen = job_gen_;
        if (job_->entered < job_->max_entrants) {
          job = job_;
          slot = job->entered++;
          job->inside.fetch_add(1, std::memory_order_relaxed);
        }
      } else if (stop_) {
        return;
      }
    }
    if (job == nullptr) continue;
    t_inside_pool = this;
    run_chunks(*job, slot);
    t_inside_pool = nullptr;
    if (job->inside.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Acquire the mutex before notifying so the caller cannot check the
      // predicate, miss this decrement, and then sleep past the notify.
      { const std::lock_guard<std::mutex> lock(mutex_); }
      done_cv_.notify_all();
    }
  }
}

void ThreadPool::run_chunks(Job& job, std::size_t worker) {
  for (;;) {
    const std::size_t begin = job.next.fetch_add(job.chunk, std::memory_order_relaxed);
    if (begin >= job.n) return;
    const std::size_t end = std::min(begin + job.chunk, job.n);
    try {
      for (std::size_t i = begin; i < end; ++i) (*job.fn)(worker, i);
    } catch (...) {
      {
        const std::lock_guard<std::mutex> lock(job.error_mutex);
        if (!job.error) job.error = std::current_exception();
      }
      // Cancel every unclaimed index; chunks already claimed still finish.
      job.next.store(job.n, std::memory_order_relaxed);
      return;
    }
  }
}

void ThreadPool::parallel_for(std::size_t n, std::size_t max_workers,
                              const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  if (max_workers == 0) max_workers = workers_.size() + 1;
  // Re-entrant calls (fn itself parallelizes on this pool) run inline:
  // the outer job owns dispatch_mutex_ for its whole duration, so joining
  // a second job from inside would deadlock.
  if (n == 1 || max_workers <= 1 || workers_.empty() || t_inside_pool == this) {
    for (std::size_t i = 0; i < n; ++i) fn(0, i);
    return;
  }
  Job job;
  job.n = n;
  job.fn = &fn;
  // Chunks amortize the atomic cursor for large dense loops while keeping
  // per-index dispatch (best load balance) for the long-task small-n shape
  // sweeps have.
  job.chunk = std::max<std::size_t>(1, n / (max_workers * 8));
  job.max_entrants = max_workers;
  job.entered = 1;  // slot 0 is the caller
  job.inside.store(1, std::memory_order_relaxed);

  const std::lock_guard<std::mutex> dispatch_lock(dispatch_mutex_);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    job_ = &job;
    ++job_gen_;
  }
  cv_.notify_all();
  const ThreadPool* const prev_inside = t_inside_pool;
  t_inside_pool = this;
  run_chunks(job, 0);
  t_inside_pool = prev_inside;
  job.inside.fetch_sub(1, std::memory_order_acq_rel);
  {
    // Wait under the mutex until no participant is inside the job, then
    // unpublish it in the same critical section. Joins also happen under
    // the mutex, so no worker can slip in between the final check and the
    // unpublish and touch the stack Job after it dies.
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&] { return job.inside.load(std::memory_order_acquire) == 0; });
    job_ = nullptr;
  }
  if (job.error) std::rethrow_exception(job.error);
}

void ThreadPool::parallel_for(std::size_t n, std::size_t threads,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  if (n == 1 || threads == 1) {
    // Small jobs run inline: no wakeups, no pool hand-off, no threads
    // spun up and torn down per call site (the seed behavior).
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  shared().parallel_for(n, threads,
                        [&fn](std::size_t /*worker*/, std::size_t i) { fn(i); });
}

}  // namespace dtn::util
