// Space-saving heavy-hitter tracker: a fixed-capacity table of candidate
// flows ordered by estimated byte count, fed through a count-min admission
// filter. Constant space, allocation-free after construction, O(log capacity)
// worst case per update (capacity is a small constant, so effectively O(1)).
//
// The classic space-saving algorithm evicts the minimum entry on every miss
// once the table is full, which at millions of distinct flows turns every
// mouse flow into an eviction. Here the caller supplies the flow's current
// count-min estimate with each update: a miss only displaces the minimum
// entry when the estimate exceeds it (the HeavyKeeper/TopK pattern), so cold
// flows bounce off the filter in O(1) and the table churns only when a flow
// has sketch-evidence of being heavy. The inserted count is the count-min
// estimate — an overestimate — and the displaced minimum is recorded as the
// entry's `error`, preserving space-saving's invariant that true counts lie
// in [count - error, count].
//
// Merge semantics (fleet roll-up): counts of keys present in both tables
// add; keys present in one carry over; the union is then cut back to
// capacity keeping the largest byte counts, ties broken by key order. The
// operation is commutative, and it is exact (lossless, equal to a
// direct single-table run) whenever no table ever evicted — the regime the
// merge-algebra tests pin.
#ifndef SRC_OBS_SKETCH_SPACE_SAVING_H_
#define SRC_OBS_SKETCH_SPACE_SAVING_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/sketch/sketch_hash.h"

namespace taichi::obs::sketch {

struct SpaceSavingConfig {
  uint32_t capacity = 64;  // Tracked candidates; report top-K from these.
  uint64_t seed = 0x7a1c5eedULL;
};

class SpaceSaving {
 public:
  struct Entry {
    FlowKey key;
    uint64_t bytes = 0;    // Estimated byte count (upper bound).
    uint64_t packets = 0;  // Estimated packet count (upper bound).
    uint64_t error = 0;    // Max overcount baked into `bytes` at admission.
  };

  explicit SpaceSaving(SpaceSavingConfig config);

  // Records `bytes` for `key`. `est_bytes`/`est_packets` are the flow's
  // current count-min estimates (including this packet); they seed the entry
  // on admission and gate eviction. Returns true if the key was already
  // tracked (its entry grew), false if it was admitted or bounced.
  // Allocation-free. `h` is the key's count-min pair: the index is seeded
  // like the count-min (kCountMinTag), so a caller that already hashed the
  // key for the count-min passes the pair instead of hashing again.
  bool Update(const FlowKey& key, const HashPair& h, uint32_t bytes, uint64_t est_bytes,
              uint64_t est_packets);
  bool Update(const FlowKey& key, uint32_t bytes, uint64_t est_bytes, uint64_t est_packets) {
    return Update(key, hash_(key), bytes, est_bytes, est_packets);
  }

  // The top `k` tracked flows by bytes, descending, ties by key order.
  // Control-plane only (allocates the result vector).
  std::vector<Entry> TopK(size_t k) const;

  size_t tracked() const { return live_; }
  uint32_t capacity() const { return config_.capacity; }
  uint64_t seed() const { return hash_.seed(); }
  // Total misses that displaced a live entry — when zero, the table is an
  // exact per-flow account of every key it admitted (merge is lossless).
  uint64_t evictions() const { return evictions_; }

  bool Compatible(const SpaceSaving& other) const {
    return seed() == other.seed() && config_.capacity == other.config_.capacity;
  }

  // Union-and-truncate as described above. `other` must share
  // (seed, capacity); on mismatch the merge is refused with a TAICHI_ERROR
  // and *this is unchanged.
  bool Merge(const SpaceSaving& other);

 private:
  static constexpr uint32_t kEmpty = UINT32_MAX;

  // One open-addressed index slot: a key, its entry's heap position (kEmpty
  // when the slot is free) and its home slot, where the key's probe chain
  // starts. With the home stored and each entry pointing back at its slot,
  // sifts and deletions move index records without re-hashing any key.
  struct Slot {
    FlowKey key;
    uint32_t pos = kEmpty;
    uint32_t home = 0;
  };

  // Entries live in heap order: entries_[0] is the minimum by (bytes, key).
  // index_ is open-addressed (linear probing, backward-shift deletion) from
  // key hash to entry position, kept in sync with every sift.
  bool HeapLess(const Entry& a, const Entry& b) const;
  void Swap(size_t a, size_t b);
  void SiftUp(size_t pos);
  void SiftDown(size_t pos);
  uint32_t Home(const HashPair& h) const { return static_cast<uint32_t>(h.h2 & index_mask_); }
  void IndexInsert(const FlowKey& key, uint32_t home, uint32_t pos);
  void IndexErase(size_t slot);
  void Rebuild(std::vector<Entry> entries);

  SpaceSavingConfig config_;
  KeyHash hash_;
  std::vector<Entry> entries_;        // Min-heap by (bytes, key); first live_ used.
  std::vector<uint32_t> entry_slot_;  // Index slot of each entry (back-pointer).
  size_t live_ = 0;
  std::vector<Slot> index_;
  uint64_t index_mask_ = 0;
  uint64_t evictions_ = 0;
};

}  // namespace taichi::obs::sketch

#endif  // SRC_OBS_SKETCH_SPACE_SAVING_H_
