#include "src/sim/thread_pool.h"

namespace taichi::sim {

ThreadPool::ThreadPool(int threads) : threads_(threads < 1 ? 1 : threads) {
  cursors_ = std::make_unique<ShardCursor[]>(static_cast<size_t>(threads_));
  workers_.reserve(static_cast<size_t>(threads_ - 1));
  for (int i = 1; i < threads_; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  start_cv_.notify_all();
  for (std::thread& w : workers_) {
    w.join();
  }
}

void ThreadPool::RunShards(FunctionRef<void(size_t)> fn, size_t n, int stripe) {
  const size_t stride = static_cast<size_t>(threads_);
  // d == 0: level-1 — drain the stripe this participant owns (indices
  // stripe, stripe + T, ...) off its private cursor. d > 0: the stripe is
  // dry; steal whole indices from the d-th neighbour's cursor. A claim that
  // lands past the stripe end is a bounded no-op (at most one per visitor
  // per queue), not a lost index.
  for (int d = 0; d < threads_; ++d) {
    const size_t q = static_cast<size_t>((stripe + d) % threads_);
    std::atomic<uint32_t>& cursor = cursors_[q].next;
    for (;;) {
      const size_t k = cursor.fetch_add(1, std::memory_order_relaxed);
      const size_t i = q + k * stride;
      if (i >= n) {
        break;
      }
      fn(i);
    }
  }
}

void ThreadPool::WorkerLoop(int self) {
  uint64_t seen_gen = 0;
  for (;;) {
    FunctionRef<void(size_t)> fn;
    size_t n;
    int stripe;
    {
      std::unique_lock<std::mutex> lock(mu_);
      start_cv_.wait(lock, [this, seen_gen] { return shutdown_ || job_gen_ != seen_gen; });
      if (shutdown_) {
        return;
      }
      seen_gen = job_gen_;
      fn = job_;
      n = job_n_;
      stripe = (self + job_shift_) % threads_;
    }
    RunShards(fn, n, stripe);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--unfinished_ == 0) {
        done_cv_.notify_one();
      }
    }
  }
}

void ThreadPool::ParallelFor(size_t n, FunctionRef<void(size_t)> fn) {
  if (workers_.empty() || n <= 1) {
    for (size_t i = 0; i < n; ++i) {
      fn(i);
    }
    return;
  }
  int stripe;
  {
    std::lock_guard<std::mutex> lock(mu_);
    job_ = fn;
    job_n_ = n;
    for (int i = 0; i < threads_; ++i) {
      cursors_[i].next.store(0, std::memory_order_relaxed);
    }
    unfinished_ = workers_.size();
    job_shift_ = static_cast<int>(job_gen_ / kRotatePeriod % static_cast<uint64_t>(threads_));
    ++job_gen_;
    stripe = job_shift_;  // The caller is participant 0.
  }
  start_cv_.notify_all();
  RunShards(fn, n, stripe);
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] { return unfinished_ == 0; });
  job_ = FunctionRef<void(size_t)>();
}

}  // namespace taichi::sim
