// Seeded 64-bit mixing hashes shared by every sketch. Deterministic across
// platforms and standard libraries (no std::hash, no wall clock): the same
// seed always produces the same hash family, which is what makes per-node
// sketches mergeable into fleet scope.
#ifndef SRC_OBS_SKETCH_SKETCH_HASH_H_
#define SRC_OBS_SKETCH_SKETCH_HASH_H_

#include <cstdint>

#include "src/obs/flow_key.h"

namespace taichi::obs::sketch {

// splitmix64 finalizer: full-avalanche bijective mix.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Two independent 64-bit hashes of a flow key under `seed`. Every sketch
// derives its row/register/bucket indices from this pair via the
// Kirsch-Mitzenmacher construction h_i = h1 + i * h2, so one key costs two
// mixes regardless of sketch depth.
struct HashPair {
  uint64_t h1;
  uint64_t h2;
};

// The pair's hash family under one seed, with the seed-only term mixed once
// at construction: a key then costs two mixes, and h1 alone (all HLL reads)
// one. Sketches hold one of these instead of re-deriving it per packet.
class KeyHash {
 public:
  explicit KeyHash(uint64_t seed)
      : seed_(seed), lo_seed_(Mix64(seed ^ 0xd6e8feb86659fd93ULL)) {}

  uint64_t seed() const { return seed_; }
  uint64_t H1(const FlowKey& key) const { return Mix64(key.PackHi() ^ seed_); }
  HashPair operator()(const FlowKey& key) const {
    const uint64_t a = H1(key);
    const uint64_t b = Mix64(key.PackLo() ^ lo_seed_ ^ a);
    return {a, b | 1};  // Odd h2: h1 + i*h2 never collapses across rows.
  }

 private:
  uint64_t seed_;
  uint64_t lo_seed_;
};

inline HashPair HashKey(const FlowKey& key, uint64_t seed) { return KeyHash(seed)(key); }

// Derives a stable sub-seed for sketch component `tag` from a base seed —
// the "sim::Rng-derived keys" pattern: one user-visible seed fans out into
// independent hash families for CMS, HLL and the heavy-hitter index.
inline uint64_t DeriveSeed(uint64_t base, uint64_t tag) {
  return Mix64(base ^ Mix64(tag));
}

// The count-min family's tag. The heavy-hitter index takes its home slots
// from the same family, so one pair per packet serves both sketches.
inline constexpr uint64_t kCountMinTag = 0xc35;

}  // namespace taichi::obs::sketch

#endif  // SRC_OBS_SKETCH_SKETCH_HASH_H_
