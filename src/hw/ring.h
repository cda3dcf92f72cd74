// A descriptor ring in the memory shared between the accelerator and a
// data-plane service, with a watcher hook so poll-mode consumers can be
// fast-forwarded to the next arrival instead of simulating each empty poll.
#ifndef SRC_HW_RING_H_
#define SRC_HW_RING_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/sim/inline_callback.h"
#include "src/sim/packet_pool.h"

namespace taichi::hw {

// Carries 4-byte sim::PacketHandle descriptors, not packets — the payload
// stays in the node's PacketPool, exactly as a real rx ring carries mbuf
// pointers into a shared arena. Storage is a power-of-two circular buffer
// sized once at construction; Push/PopBurst never allocate.
class DescriptorRing {
 public:
  explicit DescriptorRing(size_t capacity = 4096) {
    size_t pow2 = 1;
    while (pow2 < capacity) pow2 <<= 1;
    slots_.resize(pow2);
    mask_ = pow2 - 1;
    capacity_ = capacity;
  }

  // Pushes a descriptor. Returns false (drop) when the ring is full, which
  // mirrors rx-ring overflow behaviour under overload. On a drop the caller
  // still owns the handle and must return it to the pool.
  bool Push(sim::PacketHandle h) {
    if (size() >= capacity_) {
      ++drops_;
      return false;
    }
    slots_[tail_ & mask_] = h;
    ++tail_;
    if (watcher_) {
      watcher_();
    }
    return true;
  }

  // Pops up to `max` descriptors into `out`; returns the count — the model of
  // rte_eth_rx_burst(). Ownership of the popped handles passes to the caller.
  size_t PopBurst(size_t max, sim::PacketHandle* out) {
    size_t n = 0;
    while (n < max && head_ != tail_) {
      out[n++] = slots_[head_ & mask_];
      ++head_;
    }
    return n;
  }

  bool empty() const { return head_ == tail_; }
  size_t size() const { return static_cast<size_t>(tail_ - head_); }
  size_t capacity() const { return capacity_; }
  uint64_t drops() const { return drops_; }

  // Invoked on every Push, once the descriptor is in the ring. Poll services
  // use it to wake from idle fast-forward, and it may pop synchronously:
  // PollService's does, through Kernel::KickTask -> Next. That is safe
  // because Push advances tail_ before it calls the watcher.
  void set_watcher(sim::InlineCallback watcher) { watcher_ = std::move(watcher); }

 private:
  std::vector<sim::PacketHandle> slots_;
  uint64_t head_ = 0;   // Next slot to pop.
  uint64_t tail_ = 0;   // Next slot to fill.
  size_t mask_ = 0;
  size_t capacity_ = 0;
  sim::InlineCallback watcher_;
  uint64_t drops_ = 0;
};

}  // namespace taichi::hw

#endif  // SRC_HW_RING_H_
