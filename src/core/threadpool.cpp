#include "core/threadpool.hpp"

#include <algorithm>

namespace coe::core {

ThreadPool::ThreadPool(std::size_t threads) {
  std::size_t n = threads ? threads : std::thread::hardware_concurrency();
  if (n == 0) n = 1;
  // The calling thread acts as worker 0; spawn the rest.
  for (std::size_t i = 1; i < n; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mtx_);
    stop_ = true;
    ++generation_;
  }
  cv_start_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::drain(const Job& job) {
  for (;;) {
    const std::size_t c = next_chunk_.fetch_add(1, std::memory_order_relaxed);
    if (c >= job.chunks) return;
    const std::size_t lo = job.n * c / job.chunks;
    const std::size_t hi = job.n * (c + 1) / job.chunks;
    job.fn(c, lo, hi);
  }
}

void ThreadPool::run(std::size_t n, FnRef fn) {
  if (n == 0) return;
  const std::size_t chunks = chunk_count(n);

  if (chunks == 1 || workers_.empty()) {
    fn(0, 0, n);
    return;
  }

  // Waking every worker for a handful of chunks costs more than it saves;
  // only ids 1..participants take part, the rest skip this generation.
  const std::size_t participants = std::min(workers_.size(), chunks - 1);
  {
    std::lock_guard<std::mutex> lk(mtx_);
    job_ = Job{fn, n, chunks, participants};
    next_chunk_.store(0, std::memory_order_relaxed);
    pending_ = participants;
    ++generation_;
  }
  cv_start_.notify_all();

  drain(job_);

  std::unique_lock<std::mutex> lk(mtx_);
  cv_done_.wait(lk, [this] { return pending_ == 0; });
}

void ThreadPool::worker_loop(std::size_t id) {
  std::size_t seen = 0;
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lk(mtx_);
      cv_start_.wait(lk, [&] { return stop_ || generation_ != seen; });
      seen = generation_;
      if (stop_) return;
      job = job_;
    }
    if (job.fn.call != nullptr && id <= job.participants) {
      drain(job);
      std::lock_guard<std::mutex> lk(mtx_);
      if (--pending_ == 0) cv_done_.notify_all();
    }
  }
}

ThreadPool& global_pool() {
  static ThreadPool pool;
  return pool;
}

}  // namespace coe::core
