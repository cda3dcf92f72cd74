// Count-min sketch over flow keys, counting packets and bytes per flow in
// constant space: depth hash rows of width counters each, point queries
// answered by the minimum cell across rows.
//
// Properties the flow observability layer leans on:
//   - Overestimate-only: an estimate is never below the true count. The
//     update is *conservative* (only cells equal to the current minimum
//     advance), which empirically cuts the overestimate by 2-10x on skewed
//     traffic without giving up the one-sided error guarantee.
//   - Mergeable: two sketches built with the same (seed, width, depth) merge
//     by cell-wise addition, and the merged sketch upper-bounds the union
//     stream exactly as if it had seen every packet itself — per-node
//     sketches roll up to fleet scope the way MergeSummaries adds summary
//     buckets.
//   - Deterministic: the hash family comes from the seed alone, so same-seed
//     runs are byte-identical and cross-node merges line up cell for cell.
//   - Error bound: with width w and total stream mass L1, any estimate
//     exceeds the truth by more than (e/w)*L1 with probability < e^-depth.
//
// The update path is allocation-free and O(depth): all storage is laid out
// at construction. A caller that hashes the key itself (FlowMonitor, which
// shares the pair with the heavy-hitter index) can prefetch the key's cells
// with Prefetch() and update through Update(HashPair, ...) later, so a batch
// of keys pays for its cache misses once, in parallel.
#ifndef SRC_OBS_SKETCH_COUNT_MIN_H_
#define SRC_OBS_SKETCH_COUNT_MIN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/sketch/sketch_hash.h"

namespace taichi::obs::sketch {

struct CountMinConfig {
  uint32_t width = 4096;  // Counters per row; rounded up to a power of two.
  uint32_t depth = 4;     // Hash rows; clamped to [1, kMaxDepth].
  uint64_t seed = 0x7a1c5eedULL;
};

class CountMinSketch {
 public:
  // More rows than this buy nothing (failure probability e^-16) and would
  // not fit Update's on-stack cell list.
  static constexpr uint32_t kMaxDepth = 16;

  struct Estimate {
    uint64_t packets = 0;
    uint64_t bytes = 0;
  };
  struct Cell {
    uint64_t packets = 0;
    uint64_t bytes = 0;
    bool operator==(const Cell&) const = default;
  };

  explicit CountMinSketch(CountMinConfig config);

  // The key's hash pair under this sketch's family (see kCountMinTag).
  HashPair Hash(const FlowKey& key) const { return hash_(key); }

  // Prefetches, for writing, the `depth` cells Update(h, ...) will touch.
  void Prefetch(const HashPair& h) const {
    for (uint32_t row = 0; row < config_.depth; ++row) {
      __builtin_prefetch(&cells_[CellIndex(h, row)], /*rw=*/1);
    }
  }

  // Counts one packet of `bytes` for the key hashed to `h` and returns the
  // key's estimate after the update — what Query(key) would return next,
  // without re-reading the cells. O(depth), allocation-free.
  Estimate Update(const HashPair& h, uint32_t bytes);
  Estimate Update(const FlowKey& key, uint32_t bytes) { return Update(hash_(key), bytes); }

  // Point query: an upper bound on the flow's true packet/byte counts.
  Estimate Query(const FlowKey& key) const;

  // Cell-wise addition. `other` must share (seed, width, depth); on mismatch
  // the merge is refused with a TAICHI_ERROR and *this is unchanged.
  bool Merge(const CountMinSketch& other);

  // Exact totals of the observed stream (not estimates).
  uint64_t total_packets() const { return total_packets_; }
  uint64_t total_bytes() const { return total_bytes_; }

  // (e / width): multiply by the stream's L1 mass for the additive error
  // ceiling that holds with probability 1 - e^-depth.
  double epsilon() const;
  uint32_t width() const { return width_; }
  uint32_t depth() const { return config_.depth; }
  uint64_t seed() const { return hash_.seed(); }
  // depth rows of width cells, row-major.
  const std::vector<Cell>& cells() const { return cells_; }

  bool Compatible(const CountMinSketch& other) const {
    return seed() == other.seed() && width_ == other.width_ &&
           config_.depth == other.config_.depth;
  }

  // Deterministic JSON: config, totals and error bound (not the cell arrays).
  std::string ToJson() const;

 private:
  size_t CellIndex(const HashPair& h, uint32_t row) const {
    return static_cast<size_t>(row) * width_ +
           static_cast<size_t>((h.h1 + row * h.h2) & mask_);
  }

  CountMinConfig config_;
  KeyHash hash_;
  uint32_t width_;   // Power of two.
  uint64_t mask_;    // width_ - 1.
  std::vector<Cell> cells_;  // depth rows of width cells, row-major.
  uint64_t total_packets_ = 0;
  uint64_t total_bytes_ = 0;
};

}  // namespace taichi::obs::sketch

#endif  // SRC_OBS_SKETCH_COUNT_MIN_H_
