#pragma once
// Minimal blocking-fork-join thread pool used by the Threads backend.
// Workers are created once and parked on a condition variable; parallel_for
// partitions [0, n) into min(n, 16) contiguous chunks that workers claim
// from a shared atomic counter (guided scheduling), so irregular bodies
// (CSR rows, neighbor lists) balance instead of being pinned to one static
// chunk per worker. The partition depends on n only, never on the pool
// size, so chunk-indexed reductions give the same bits on every host.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace coe::core {

class ThreadPool {
 public:
  /// Creates `threads` workers (0 = hardware concurrency).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size() + 1; }

  /// Number of chunks parallel_for(n, ...) will partition [0, n) into —
  /// the maximum fan-out of fn invocations, so callers can size per-chunk
  /// accumulators safely. Fixed at 16 (4x a 4-core host, so claimed
  /// chunks balance) rather than scaled by size(), so that reduction bits
  /// do not depend on the host's core count.
  std::size_t chunk_count(std::size_t n) const {
    constexpr std::size_t kChunks = 16;
    return n < kChunks ? n : kChunks;
  }

  /// Runs fn(lo, hi) -- or fn(chunk, lo, hi), for per-chunk accumulators
  /// -- on the contiguous chunks of [0, n), blocking until all complete.
  /// Chunk c always covers [n*c/K, n*(c+1)/K) with K = chunk_count(n),
  /// whichever thread claims it. The calling thread claims chunks
  /// alongside the workers. The callable is referenced in place for the
  /// duration of the (blocking) call: no std::function allocation, one
  /// indirect call per chunk.
  template <typename F>
  void parallel_for(std::size_t n, F&& fn) {
    using Fn = std::remove_reference_t<F>;
    run(n, FnRef{const_cast<void*>(static_cast<const void*>(&fn)),
                 [](void* f, std::size_t c, std::size_t lo, std::size_t hi) {
                   if constexpr (std::is_invocable_v<Fn&, std::size_t,
                                                     std::size_t,
                                                     std::size_t>) {
                     (*static_cast<Fn*>(f))(c, lo, hi);
                   } else {
                     (*static_cast<Fn*>(f))(lo, hi);
                   }
                 }});
  }

 private:
  /// Non-owning callable reference (function_ref): valid only while the
  /// referenced callable outlives the blocking run() that uses it.
  struct FnRef {
    void* obj = nullptr;
    void (*call)(void*, std::size_t, std::size_t, std::size_t) = nullptr;
    void operator()(std::size_t c, std::size_t lo, std::size_t hi) const {
      call(obj, c, lo, hi);
    }
  };

  struct Job {
    FnRef fn;
    std::size_t n = 0;
    std::size_t chunks = 0;
    std::size_t participants = 0;  ///< worker ids 1..participants join in
  };

  void run(std::size_t n, FnRef fn);
  /// Claims chunks from next_chunk_ until the job is drained.
  void drain(const Job& job);
  void worker_loop(std::size_t id);

  std::vector<std::thread> workers_;
  std::mutex mtx_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  Job job_;
  std::atomic<std::size_t> next_chunk_{0};
  std::size_t generation_ = 0;
  std::size_t pending_ = 0;
  bool stop_ = false;
};

/// Process-wide pool shared by all Threads-backend contexts.
ThreadPool& global_pool();

}  // namespace coe::core
