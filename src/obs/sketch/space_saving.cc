#include "src/obs/sketch/space_saving.h"

#include <algorithm>

#include "src/sim/logging.h"

namespace taichi::obs::sketch {

namespace {

uint64_t RoundUpPow2(uint64_t v) {
  uint64_t p = 1;
  while (p < v) {
    p <<= 1;
  }
  return p;
}

// Descending by bytes, ascending by key on ties — the report order.
bool ReportGreater(const SpaceSaving::Entry& a, const SpaceSaving::Entry& b) {
  if (a.bytes != b.bytes) {
    return a.bytes > b.bytes;
  }
  return a.key < b.key;
}

}  // namespace

SpaceSaving::SpaceSaving(SpaceSavingConfig config)
    : config_(config), hash_(DeriveSeed(config.seed, kCountMinTag)) {
  if (config_.capacity < 1) {
    TAICHI_ERROR(0, "space_saving: capacity %u is degenerate, clamping to 1",
                 config_.capacity);
    config_.capacity = 1;
  }
  entries_.resize(config_.capacity);
  entry_slot_.resize(config_.capacity);
  // 4x slack keeps linear probes short at full occupancy.
  const uint64_t slots = RoundUpPow2(uint64_t{4} * config_.capacity);
  index_.resize(slots);
  index_mask_ = slots - 1;
}

bool SpaceSaving::HeapLess(const Entry& a, const Entry& b) const {
  if (a.bytes != b.bytes) {
    return a.bytes < b.bytes;
  }
  return a.key < b.key;
}

void SpaceSaving::IndexInsert(const FlowKey& key, uint32_t home, uint32_t pos) {
  size_t slot = home;
  while (index_[slot].pos != kEmpty) {
    slot = (slot + 1) & index_mask_;
  }
  index_[slot] = Slot{key, pos, home};
  entry_slot_[pos] = static_cast<uint32_t>(slot);
}

void SpaceSaving::IndexErase(size_t slot) {
  // Backward-shift deletion keeps probe chains unbroken without tombstones.
  size_t hole = slot;
  index_[hole].pos = kEmpty;
  size_t j = hole;
  for (;;) {
    j = (j + 1) & index_mask_;
    if (index_[j].pos == kEmpty) {
      return;
    }
    const size_t ideal = index_[j].home;
    // Move j into the hole unless j's probe chain starts after the hole
    // (cyclic interval check: ideal in (hole, j] means it must stay).
    const bool stays = hole <= j ? (ideal > hole && ideal <= j)
                                 : (ideal > hole || ideal <= j);
    if (!stays) {
      index_[hole] = index_[j];
      entry_slot_[index_[hole].pos] = static_cast<uint32_t>(hole);
      index_[j].pos = kEmpty;
      hole = j;
    }
  }
}

void SpaceSaving::Swap(size_t a, size_t b) {
  std::swap(entries_[a], entries_[b]);
  std::swap(entry_slot_[a], entry_slot_[b]);
  index_[entry_slot_[a]].pos = static_cast<uint32_t>(a);
  index_[entry_slot_[b]].pos = static_cast<uint32_t>(b);
}

void SpaceSaving::SiftUp(size_t pos) {
  while (pos > 0) {
    const size_t parent = (pos - 1) / 2;
    if (!HeapLess(entries_[pos], entries_[parent])) {
      break;
    }
    Swap(pos, parent);
    pos = parent;
  }
}

void SpaceSaving::SiftDown(size_t pos) {
  for (;;) {
    const size_t l = pos * 2 + 1;
    if (l >= live_) {
      break;
    }
    size_t best = l;
    const size_t r = l + 1;
    if (r < live_ && HeapLess(entries_[r], entries_[l])) {
      best = r;
    }
    if (!HeapLess(entries_[best], entries_[pos])) {
      break;
    }
    Swap(pos, best);
    pos = best;
  }
}

bool SpaceSaving::Update(const FlowKey& key, const HashPair& h, uint32_t bytes,
                         uint64_t est_bytes, uint64_t est_packets) {
  const uint32_t home = Home(h);
  for (size_t slot = home; index_[slot].pos != kEmpty; slot = (slot + 1) & index_mask_) {
    if (index_[slot].key == key) {
      const uint32_t pos = index_[slot].pos;
      Entry& e = entries_[pos];
      e.bytes += bytes;
      e.packets += 1;
      SiftDown(pos);  // Counts only grow: the entry can only move down.
      return true;
    }
  }
  if (live_ < config_.capacity) {
    const size_t pos = live_++;
    entries_[pos] = Entry{key, est_bytes, est_packets, est_bytes - bytes};
    IndexInsert(key, home, static_cast<uint32_t>(pos));
    SiftUp(pos);
    return false;
  }
  // Full table: admit only with sketch-evidence of outweighing the current
  // minimum — the O(1) bounce that keeps mouse flows off the eviction path.
  Entry& min = entries_[0];
  if (est_bytes <= min.bytes) {
    return false;
  }
  ++evictions_;
  IndexErase(entry_slot_[0]);
  min = Entry{key, est_bytes, est_packets, est_bytes - bytes};
  IndexInsert(key, home, 0);
  SiftDown(0);
  return false;
}

std::vector<SpaceSaving::Entry> SpaceSaving::TopK(size_t k) const {
  std::vector<Entry> out(entries_.begin(), entries_.begin() + live_);
  std::sort(out.begin(), out.end(), ReportGreater);
  if (out.size() > k) {
    out.resize(k);
  }
  return out;
}

void SpaceSaving::Rebuild(std::vector<Entry> entries) {
  for (Slot& slot : index_) {
    slot.pos = kEmpty;
  }
  live_ = 0;
  for (Entry& e : entries) {
    const size_t pos = live_++;
    entries_[pos] = e;
    IndexInsert(e.key, Home(hash_(e.key)), static_cast<uint32_t>(pos));
    SiftUp(pos);
  }
}

bool SpaceSaving::Merge(const SpaceSaving& other) {
  if (!Compatible(other)) {
    TAICHI_ERROR(0, "space_saving: merge of incompatible tables (cap %u/%u)",
                 config_.capacity, other.config_.capacity);
    return false;
  }
  // Union the live sets (control plane: allocation is fine here).
  std::vector<Entry> merged(entries_.begin(), entries_.begin() + live_);
  for (size_t i = 0; i < other.live_; ++i) {
    const Entry& oe = other.entries_[i];
    bool found = false;
    for (Entry& e : merged) {
      if (e.key == oe.key) {
        e.bytes += oe.bytes;
        e.packets += oe.packets;
        e.error += oe.error;
        found = true;
        break;
      }
    }
    if (!found) {
      merged.push_back(oe);
    }
  }
  std::sort(merged.begin(), merged.end(), ReportGreater);
  evictions_ += other.evictions_;
  if (merged.size() > config_.capacity) {
    evictions_ += merged.size() - config_.capacity;
    merged.resize(config_.capacity);
  }
  Rebuild(std::move(merged));
  return true;
}

}  // namespace taichi::obs::sketch
