// A small fixed-size thread pool for stepping independent simulations in
// parallel (one node == one Simulation == one thread at a time).
//
// Determinism contract: ParallelFor(n, fn) runs fn(0..n-1) exactly once each
// and returns only after all of them finished (a full barrier). Which worker
// runs which index — and in what order — is unspecified, so fn(i) must touch
// only state owned by index i (plus immutable shared state). Under that
// contract a parallel run is byte-identical to a serial run: the pool adds
// concurrency, never nondeterminism. The fleet layer relies on this to keep
// same-seed cluster runs reproducible at any --threads value.
//
// Dispatch is sharded: every participant (the caller plus each worker) owns
// one stripe of indices, those congruent to some s mod threads(), and claims
// them off that stripe's cursor — its own cache line, uncontended in the
// common case. Only after its own stripe is dry does a participant steal
// from the other stripes' cursors, nearest first. That splits the barrier
// into two levels — drain-your-shard, then fleet-wide completion — and
// removes the single shared fetch_add that every claim bounced across
// sockets at 10k-node fleets.
//
// Stripe ownership rotates by one participant every kRotatePeriod calls.
// The fleet calls ParallelFor once per epoch, and a hot node sits at the same
// index every time. Its stripe's owner runs it first, so with a fixed owner
// one thread would run it on every call, and the run's wall time would
// follow the speed of whichever core that thread sits on (cores of a shared
// host differ for seconds at a time). Rotation hands the hot index to each
// participant in turn, so its cost averages over the pool's cores. Each
// owner keeps a stripe for several consecutive calls, so a node's working
// set is not moved to another core's cache on every call.
#ifndef SRC_SIM_THREAD_POOL_H_
#define SRC_SIM_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/sim/inline_callback.h"

namespace taichi::sim {

class ThreadPool {
 public:
  // `threads` counts the calling thread: ThreadPool(4) spawns 3 workers and
  // ParallelFor runs on 4 threads total. threads <= 1 spawns nothing and
  // ParallelFor degenerates to an inline loop.
  explicit ThreadPool(int threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Consecutive ParallelFor calls in which each participant keeps its
  // stripe before ownership shifts by one participant.
  static constexpr uint64_t kRotatePeriod = 8;

  int threads() const { return threads_; }

  // Runs fn(i) for every i in [0, n) across the pool and blocks until all
  // calls returned. The calling thread participates. fn must not throw and
  // must not call ParallelFor reentrantly. fn is captured by reference only
  // for the duration of the call (FunctionRef): no allocation, no copy.
  void ParallelFor(size_t n, FunctionRef<void(size_t)> fn);

 private:
  // One claim cursor per participant, each on its own cache line so stripe
  // claims never false-share.
  struct alignas(64) ShardCursor {
    std::atomic<uint32_t> next{0};
  };

  // `self` is the participant id: the caller is 0, the k-th spawned worker
  // is k + 1.
  void WorkerLoop(int self);
  // Drains `stripe`, the participant's own in this call, then steals from
  // the other stripes (level-1 of the barrier).
  void RunShards(FunctionRef<void(size_t)> fn, size_t n, int stripe);

  int threads_;
  std::vector<std::thread> workers_;
  std::unique_ptr<ShardCursor[]> cursors_;  // threads_ entries.

  std::mutex mu_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  FunctionRef<void(size_t)> job_;  // Guarded by mu_.
  size_t job_n_ = 0;               // Guarded by mu_.
  uint64_t job_gen_ = 0;           // Guarded by mu_.
  int job_shift_ = 0;              // Guarded by mu_: participant p owns stripe (p + shift) % T.
  size_t unfinished_ = 0;          // Guarded by mu_.
  bool shutdown_ = false;          // Guarded by mu_.
};

}  // namespace taichi::sim

#endif  // SRC_SIM_THREAD_POOL_H_
