// FlowMonitor: the bundled sketch facade. Pins the determinism contract
// (same seed + same stream -> byte-identical JSON), the fleet roll-up
// algebra (commutative merge, shard-then-merge totals equal to a direct
// run), heavy-hitter recall on skewed traffic, and metrics registration.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/flow_monitor.h"
#include "src/obs/metrics.h"
#include "src/obs/sketch/sketch_hash.h"

namespace taichi::obs {
namespace {

FlowKey Key(uint32_t i) {
  FlowKey k;
  k.src_ip = 0x0a000000u | (i & 0xffffffu);
  k.dst_ip = 0x0a800001u;
  k.src_port = static_cast<uint16_t>(1024 + i % 60000);
  k.dst_port = 443;
  k.proto = kProtoTcp;
  return k;
}

// Deterministic Zipf-ish stream: packet n belongs to flow rank
// floor(pow(n-hash-derived-uniform, skew) scaled), mirroring how the
// dp::OpenLoopSource synthesizes flow identity (counter-hash, no RNG).
uint32_t FlowOf(uint64_t n, uint32_t flows, double skew) {
  const uint64_t h = sketch::Mix64(n ^ 0x9e3779b97f4a7c15ULL);
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  const double r = std::pow(static_cast<double>(flows), std::pow(u, skew));
  uint64_t rank = r < 1.0 ? 0 : static_cast<uint64_t>(r) - 1;
  if (rank >= flows) {
    rank = flows - 1;
  }
  return static_cast<uint32_t>(rank);
}

TEST(FlowMonitor, SameSeedSameStreamIsByteIdentical) {
  FlowMonitorConfig cfg;
  FlowMonitor a(cfg), b(cfg);
  for (uint64_t n = 0; n < 20000; ++n) {
    const FlowKey k = Key(FlowOf(n, 5000, 1.3));
    a.OnPacket(k, 64 + n % 1400);
    b.OnPacket(k, 64 + n % 1400);
  }
  EXPECT_EQ(a.ToJson(), b.ToJson());
  EXPECT_DOUBLE_EQ(a.DistinctFlows(), b.DistinctFlows());
}

TEST(FlowMonitor, MergeIsCommutative) {
  FlowMonitorConfig cfg;
  FlowMonitor a(cfg), b(cfg);
  for (uint64_t n = 0; n < 10000; ++n) {
    (n % 3 ? a : b).OnPacket(Key(FlowOf(n, 2000, 1.3)), 200);
  }
  FlowMonitor ab = a, ba = b;
  ASSERT_TRUE(ab.Merge(b));
  ASSERT_TRUE(ba.Merge(a));
  EXPECT_EQ(ab.ToJson(), ba.ToJson());
  EXPECT_EQ(ab.total_bytes(), ba.total_bytes());
  EXPECT_DOUBLE_EQ(ab.DistinctFlows(), ba.DistinctFlows());
}

TEST(FlowMonitor, ShardThenMergeMatchesDirect) {
  // Simulates the fleet roll-up: four "nodes" each see a slice of the
  // stream; their merged monitor must report the same exact totals as one
  // monitor that saw everything, the identical distinct-flow estimate
  // (register-max is exact), and per-flow estimates that never drop below
  // the true counts (conservative update makes merged vs direct cells
  // incomparable, but both stay upper bounds of the truth).
  FlowMonitorConfig cfg;
  FlowMonitor direct(cfg);
  std::vector<FlowMonitor> nodes(4, FlowMonitor(cfg));
  constexpr uint32_t kFlows = 8000;
  std::vector<uint64_t> truth(kFlows, 0);
  for (uint64_t n = 0; n < 40000; ++n) {
    const uint32_t f = FlowOf(n, kFlows, 1.3);
    const FlowKey k = Key(f);
    const uint32_t bytes = 64 + n % 1400;
    truth[f] += bytes;
    nodes[n % 4].OnPacket(k, bytes);
    direct.OnPacket(k, bytes);
  }
  FlowMonitor fleet(cfg);
  for (const FlowMonitor& node : nodes) {
    ASSERT_TRUE(fleet.Merge(node));
  }
  EXPECT_EQ(fleet.total_packets(), direct.total_packets());
  EXPECT_EQ(fleet.total_bytes(), direct.total_bytes());
  EXPECT_DOUBLE_EQ(fleet.DistinctFlows(), direct.DistinctFlows());
  for (uint32_t i = 0; i < 200; ++i) {
    EXPECT_GE(fleet.Query(Key(i)).bytes, truth[i]) << i;
    EXPECT_GE(direct.Query(Key(i)).bytes, truth[i]) << i;
  }
}

TEST(FlowMonitor, MergeRefusesIncompatibleConfigs) {
  FlowMonitorConfig cfg, other;
  other.seed = 0xdeadbeefULL;
  FlowMonitor a(cfg), b(other);
  a.OnPacket(Key(1), 100);
  const std::string before = a.ToJson();
  EXPECT_FALSE(a.Compatible(b));
  EXPECT_FALSE(a.Merge(b));
  EXPECT_EQ(a.ToJson(), before);
}

TEST(FlowMonitor, TopKRecallOnSkewedStream) {
  // 100k packets over 10k flows, Zipf-skewed. The true top flows by bytes
  // are known exactly (uniform packet size); the monitor must recover at
  // least 90% of the top 16 from constant space.
  FlowMonitorConfig cfg;
  FlowMonitor fm(cfg);
  constexpr uint32_t kFlows = 10000;
  std::vector<uint64_t> truth(kFlows, 0);
  for (uint64_t n = 0; n < 100000; ++n) {
    const uint32_t f = FlowOf(n, kFlows, 1.3);
    truth[f] += 1000;
    fm.OnPacket(Key(f), 1000);
  }
  std::vector<uint32_t> order(kFlows);
  for (uint32_t i = 0; i < kFlows; ++i) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(),
            [&](uint32_t a, uint32_t b) { return truth[a] > truth[b]; });
  const auto top = fm.TopK(16);
  ASSERT_EQ(top.size(), 16u);
  int hits = 0;
  for (const auto& e : top) {
    for (size_t t = 0; t < 16; ++t) {
      if (e.key == Key(order[t])) {
        ++hits;
        break;
      }
    }
  }
  EXPECT_GE(hits, 15) << "top-16 recall below 0.9";
  // Reported byte counts are upper bounds with bounded error.
  for (const auto& e : top) {
    EXPECT_GE(e.bytes, e.error);
  }
}

TEST(FlowMonitor, RegistersAndUnregistersMetrics) {
  FlowMonitorConfig cfg;
  FlowMonitor fm(cfg);
  std::vector<bool> seen(50, false);
  for (uint64_t n = 0; n < 300; ++n) {
    const uint32_t f = FlowOf(n, 50, 1.3);
    seen[f] = true;
    fm.OnPacket(Key(f), 500);
  }
  // The skewed synthesizer does not necessarily hit every rank in 300
  // draws: compare against the stream's true distinct count.
  const double true_distinct =
      static_cast<double>(std::count(seen.begin(), seen.end(), true));
  MetricsRegistry reg;
  fm.RegisterMetrics(reg, "flows.dp.");
  const MetricsSnapshot snap = reg.Snapshot(0);
  const MetricSample* distinct = snap.Find("flows.dp.distinct_flows");
  ASSERT_NE(distinct, nullptr);
  EXPECT_NEAR(distinct->value, true_distinct, 3.0);
  const MetricSample* packets = snap.Find("flows.dp.total_packets");
  ASSERT_NE(packets, nullptr);
  EXPECT_EQ(packets->count, 300u);
  const MetricSample* bytes = snap.Find("flows.dp.total_bytes");
  ASSERT_NE(bytes, nullptr);
  EXPECT_EQ(bytes->count, 300u * 500u);
  ASSERT_NE(snap.Find("flows.dp.cms_epsilon"), nullptr);
  ASSERT_NE(snap.Find("flows.dp.heavy_evictions"), nullptr);
  reg.RemovePrefix("flows.dp.");
  EXPECT_EQ(reg.size(), 0u);
}

TEST(FlowMonitor, ToJsonNamesHeavyFlows) {
  FlowMonitor fm((FlowMonitorConfig{}));
  for (int i = 0; i < 10; ++i) {
    fm.OnPacket(Key(7), 1500);
  }
  const std::string json = fm.ToJson(4);
  EXPECT_NE(json.find("\"top\": ["), std::string::npos) << json;
  EXPECT_NE(json.find(Key(7).ToString()), std::string::npos) << json;
  EXPECT_NE(json.find("\"cms\": "), std::string::npos);
  EXPECT_NE(json.find("\"hll\": "), std::string::npos);
}

// The tap as it was before it learned to skip work: a fresh HashKey per
// sketch and per index probe, a count-min Query after every update, a
// heavy-hitter index that re-hashes both keys on every heap swap and
// backward shift, and an HLL observation on every packet. FlowMonitor must
// leave exactly the state this reference leaves.
class ReferenceMonitor {
 public:
  using Cell = sketch::CountMinSketch::Cell;
  using Entry = sketch::SpaceSaving::Entry;

  explicit ReferenceMonitor(const FlowMonitor& shape)
      : cms_seed_(shape.cms().seed()),
        width_(shape.cms().width()),
        depth_(shape.cms().depth()),
        cells_(size_t{width_} * depth_),
        hll_seed_(shape.hll().seed()),
        precision_(static_cast<int>(shape.hll().precision())),
        registers_(size_t{1} << precision_),
        ss_seed_(shape.topk().seed()),
        capacity_(shape.topk().capacity()),
        entries_(capacity_),
        index_keys_(std::bit_ceil(size_t{4} * capacity_)),
        index_pos_(index_keys_.size(), kEmpty),
        mask_(index_keys_.size() - 1) {}

  void OnPacket(const FlowKey& key, uint32_t bytes) {
    const sketch::HashPair h = sketch::HashKey(key, cms_seed_);
    uint64_t min_packets = UINT64_MAX, min_bytes = UINT64_MAX;
    for (uint32_t row = 0; row < depth_; ++row) {
      min_packets = std::min(min_packets, cells_[CellIndex(h, row)].packets);
      min_bytes = std::min(min_bytes, cells_[CellIndex(h, row)].bytes);
    }
    for (uint32_t row = 0; row < depth_; ++row) {
      Cell& c = cells_[CellIndex(h, row)];
      c.packets = std::max(c.packets, min_packets + 1);
      c.bytes = std::max(c.bytes, min_bytes + bytes);
    }
    uint64_t est_packets = UINT64_MAX, est_bytes = UINT64_MAX;
    for (uint32_t row = 0; row < depth_; ++row) {
      est_packets = std::min(est_packets, cells_[CellIndex(h, row)].packets);
      est_bytes = std::min(est_bytes, cells_[CellIndex(h, row)].bytes);
    }
    TopkUpdate(key, bytes, est_bytes, est_packets);
    const uint64_t h1 = sketch::HashKey(key, hll_seed_).h1;
    const size_t reg = static_cast<size_t>(h1 >> (64 - precision_));
    const uint64_t rest = h1 << precision_;
    const int lz = rest == 0 ? 64 - precision_ : std::countl_zero(rest);
    const uint8_t rank = static_cast<uint8_t>(std::min(64 - precision_, lz + 1));
    registers_[reg] = std::max(registers_[reg], rank);
  }

  void Merge(const ReferenceMonitor& other) {
    for (size_t i = 0; i < cells_.size(); ++i) {
      cells_[i].packets += other.cells_[i].packets;
      cells_[i].bytes += other.cells_[i].bytes;
    }
    for (size_t i = 0; i < registers_.size(); ++i) {
      registers_[i] = std::max(registers_[i], other.registers_[i]);
    }
    std::vector<Entry> merged(entries_.begin(), entries_.begin() + live_);
    for (size_t i = 0; i < other.live_; ++i) {
      const Entry& oe = other.entries_[i];
      auto it = std::find_if(merged.begin(), merged.end(),
                             [&](const Entry& e) { return e.key == oe.key; });
      if (it == merged.end()) {
        merged.push_back(oe);
      } else {
        it->bytes += oe.bytes;
        it->packets += oe.packets;
        it->error += oe.error;
      }
    }
    std::sort(merged.begin(), merged.end(), ReportGreater);
    evictions_ += other.evictions_;
    if (merged.size() > capacity_) {
      evictions_ += merged.size() - capacity_;
      merged.resize(capacity_);
    }
    std::fill(index_pos_.begin(), index_pos_.end(), kEmpty);
    live_ = 0;
    for (const Entry& e : merged) {
      entries_[live_] = e;
      IndexInsert(e.key, static_cast<uint32_t>(live_));
      SiftUp(live_++);
    }
  }

  // Asserts `monitor` holds exactly this reference's state.
  void ExpectSameAs(const FlowMonitor& monitor) const {
    EXPECT_TRUE(monitor.cms().cells() == cells_) << "count-min cells differ";
    EXPECT_TRUE(monitor.hll().registers() == registers_) << "HLL registers differ";
    EXPECT_EQ(monitor.topk().evictions(), evictions_);
    std::vector<Entry> want(entries_.begin(), entries_.begin() + live_);
    std::sort(want.begin(), want.end(), ReportGreater);
    const std::vector<Entry> got = monitor.TopK(capacity_);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].key, want[i].key) << i;
      EXPECT_EQ(got[i].bytes, want[i].bytes) << i;
      EXPECT_EQ(got[i].packets, want[i].packets) << i;
      EXPECT_EQ(got[i].error, want[i].error) << i;
    }
  }

 private:
  static constexpr uint32_t kEmpty = UINT32_MAX;

  static bool ReportGreater(const Entry& a, const Entry& b) {
    return a.bytes != b.bytes ? a.bytes > b.bytes : a.key < b.key;
  }
  static bool HeapLess(const Entry& a, const Entry& b) {
    return a.bytes != b.bytes ? a.bytes < b.bytes : a.key < b.key;
  }
  size_t CellIndex(const sketch::HashPair& h, uint32_t row) const {
    return size_t{row} * width_ + static_cast<size_t>((h.h1 + row * h.h2) & (width_ - 1));
  }
  size_t IndexSlot(const FlowKey& key) const {
    return static_cast<size_t>(sketch::HashKey(key, ss_seed_).h2 & mask_);
  }
  uint32_t* IndexFind(const FlowKey& key) {
    for (size_t slot = IndexSlot(key); index_pos_[slot] != kEmpty; slot = (slot + 1) & mask_) {
      if (index_keys_[slot] == key) {
        return &index_pos_[slot];
      }
    }
    return nullptr;
  }
  void IndexInsert(const FlowKey& key, uint32_t pos) {
    size_t slot = IndexSlot(key);
    while (index_pos_[slot] != kEmpty) {
      slot = (slot + 1) & mask_;
    }
    index_keys_[slot] = key;
    index_pos_[slot] = pos;
  }
  void IndexErase(const FlowKey& key) {
    size_t hole = IndexSlot(key);
    while (index_pos_[hole] != kEmpty && !(index_keys_[hole] == key)) {
      hole = (hole + 1) & mask_;
    }
    index_pos_[hole] = kEmpty;
    for (size_t j = (hole + 1) & mask_; index_pos_[j] != kEmpty; j = (j + 1) & mask_) {
      const size_t ideal = IndexSlot(index_keys_[j]);
      const bool stays = hole <= j ? (ideal > hole && ideal <= j) : (ideal > hole || ideal <= j);
      if (!stays) {
        index_keys_[hole] = index_keys_[j];
        index_pos_[hole] = index_pos_[j];
        index_pos_[j] = kEmpty;
        hole = j;
      }
    }
  }
  void Swap(size_t a, size_t b) {
    std::swap(entries_[a], entries_[b]);
    *IndexFind(entries_[a].key) = static_cast<uint32_t>(a);
    *IndexFind(entries_[b].key) = static_cast<uint32_t>(b);
  }
  void SiftUp(size_t pos) {
    for (; pos > 0 && HeapLess(entries_[pos], entries_[(pos - 1) / 2]); pos = (pos - 1) / 2) {
      Swap(pos, (pos - 1) / 2);
    }
  }
  void SiftDown(size_t pos) {
    for (size_t l = pos * 2 + 1; l < live_; l = pos * 2 + 1) {
      const size_t best = l + 1 < live_ && HeapLess(entries_[l + 1], entries_[l]) ? l + 1 : l;
      if (!HeapLess(entries_[best], entries_[pos])) {
        break;
      }
      Swap(pos, best);
      pos = best;
    }
  }
  void TopkUpdate(const FlowKey& key, uint32_t bytes, uint64_t est_bytes,
                  uint64_t est_packets) {
    if (uint32_t* pos = IndexFind(key); pos != nullptr) {
      entries_[*pos].bytes += bytes;
      entries_[*pos].packets += 1;
      SiftDown(*pos);
      return;
    }
    if (live_ < capacity_) {
      entries_[live_] = Entry{key, est_bytes, est_packets, est_bytes - bytes};
      IndexInsert(key, static_cast<uint32_t>(live_));
      SiftUp(live_++);
      return;
    }
    if (est_bytes <= entries_[0].bytes) {
      return;
    }
    ++evictions_;
    IndexErase(entries_[0].key);
    entries_[0] = Entry{key, est_bytes, est_packets, est_bytes - bytes};
    IndexInsert(key, 0);
    SiftDown(0);
  }

  uint64_t cms_seed_;
  uint32_t width_;
  uint32_t depth_;
  std::vector<Cell> cells_;
  uint64_t hll_seed_;
  int precision_;
  std::vector<uint8_t> registers_;
  uint64_t ss_seed_;
  uint32_t capacity_;
  std::vector<Entry> entries_;
  size_t live_ = 0;
  std::vector<FlowKey> index_keys_;
  std::vector<uint32_t> index_pos_;
  size_t mask_;
  uint64_t evictions_ = 0;
};

TEST(FlowMonitor, MatchesReferenceTapUnderEvictionsAndMerges) {
  // A small heavy-hitter table under a long Zipf tail keeps the eviction and
  // backward-shift paths busy; merging B into A every 10k packets brings in
  // tracked keys A's own taps never admitted.
  FlowMonitorConfig cfg;
  cfg.cms_width = 256;
  cfg.hll_precision = 10;
  cfg.topk_capacity = 16;
  FlowMonitor a(cfg), b(cfg);
  ReferenceMonitor ref_a(a), ref_b(b);
  for (uint64_t n = 1; n <= 60000; ++n) {
    const FlowKey k = Key(FlowOf(n, 3000, 1.1));
    const uint32_t bytes = 64 + static_cast<uint32_t>(sketch::Mix64(n) % 1400);
    if (n % 3 == 0) {
      b.OnPacket(k, bytes);
      ref_b.OnPacket(k, bytes);
    } else {
      a.OnPacket(k, bytes);
      ref_a.OnPacket(k, bytes);
    }
    if (n % 10000 == 0) {
      ASSERT_TRUE(a.Merge(b));
      ref_a.Merge(ref_b);
      ref_a.ExpectSameAs(a);
    }
  }
  ref_a.ExpectSameAs(a);
  ref_b.ExpectSameAs(b);
  EXPECT_GT(b.topk().evictions(), 100u);
}

// OnPacket logs packets and applies them 32 at a time, so every read must
// apply the log first. Each case below takes a fresh monitor holding 45
// packets, 13 of them still logged, and calls one read path first. Every
// key is new and every packet heavier than the last, so the 13 move every
// read: totals, cells, registers, heavy hitters and evictions.
TEST(FlowMonitor, EveryReadSeesEveryLoggedPacket) {
  FlowMonitorConfig cfg;
  cfg.cms_width = 256;
  cfg.hll_precision = 10;
  cfg.topk_capacity = 16;
  constexpr uint32_t kPackets = 45;
  auto bytes_of = [](uint32_t i) { return 100 + 10 * i; };
  auto fed = [&](uint32_t first_flow) {
    FlowMonitor m(cfg);
    for (uint32_t i = 0; i < kPackets; ++i) {
      m.OnPacket(Key(first_flow + i), bytes_of(i));
    }
    return m;
  };
  auto fed_reference = [&](const FlowMonitor& shape, uint32_t first_flow) {
    ReferenceMonitor ref(shape);
    for (uint32_t i = 0; i < kPackets; ++i) {
      ref.OnPacket(Key(first_flow + i), bytes_of(i));
    }
    return ref;
  };
  // An identically fed monitor whose log cms() applied: what every derived
  // read must reproduce.
  FlowMonitor flushed = fed(0);
  flushed.cms();
  const ReferenceMonitor ref = fed_reference(flushed, 0);
  uint64_t total_bytes = 0;
  for (uint32_t i = 0; i < kPackets; ++i) {
    total_bytes += bytes_of(i);
  }
  {
    SCOPED_TRACE("total_packets");
    const FlowMonitor m = fed(0);
    EXPECT_EQ(m.total_packets(), kPackets);
    ref.ExpectSameAs(m);
  }
  {
    SCOPED_TRACE("total_bytes");
    const FlowMonitor m = fed(0);
    EXPECT_EQ(m.total_bytes(), total_bytes);
    ref.ExpectSameAs(m);
  }
  {
    SCOPED_TRACE("DistinctFlows");
    const FlowMonitor m = fed(0);
    EXPECT_DOUBLE_EQ(m.DistinctFlows(), flushed.DistinctFlows());
    ref.ExpectSameAs(m);
  }
  {
    SCOPED_TRACE("Query");
    const FlowMonitor m = fed(0);
    const sketch::CountMinSketch::Estimate got = m.Query(Key(kPackets - 1));
    const sketch::CountMinSketch::Estimate want = flushed.Query(Key(kPackets - 1));
    EXPECT_GE(got.packets, 1u);
    EXPECT_EQ(got.packets, want.packets);
    EXPECT_EQ(got.bytes, want.bytes);
    ref.ExpectSameAs(m);
  }
  {
    SCOPED_TRACE("TopK");
    const FlowMonitor m = fed(0);
    const std::vector<sketch::SpaceSaving::Entry> got = m.TopK(4);
    const std::vector<sketch::SpaceSaving::Entry> want = flushed.TopK(4);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].key, want[i].key) << i;
      EXPECT_EQ(got[i].bytes, want[i].bytes) << i;
    }
    ref.ExpectSameAs(m);
  }
  {
    SCOPED_TRACE("ToJson");
    const FlowMonitor m = fed(0);
    EXPECT_EQ(m.ToJson(), flushed.ToJson());
    ref.ExpectSameAs(m);
  }
  {
    SCOPED_TRACE("cms().cells()");
    const FlowMonitor m = fed(0);
    EXPECT_TRUE(m.cms().cells() == flushed.cms().cells());
    ref.ExpectSameAs(m);
  }
  {
    SCOPED_TRACE("hll().registers()");
    const FlowMonitor m = fed(0);
    EXPECT_TRUE(m.hll().registers() == flushed.hll().registers());
    ref.ExpectSameAs(m);
  }
  {
    SCOPED_TRACE("topk().evictions()");
    const FlowMonitor m = fed(0);
    EXPECT_EQ(m.topk().evictions(), flushed.topk().evictions());
    EXPECT_EQ(m.topk().evictions(), kPackets - cfg.topk_capacity);
    ref.ExpectSameAs(m);
  }
  const std::vector<std::string> gauges = {"flows.distinct_flows", "flows.total_packets",
                                           "flows.total_bytes", "flows.cms_epsilon",
                                           "flows.heavy_evictions"};
  MetricsRegistry want_reg;
  flushed.RegisterMetrics(want_reg, "flows.");
  const MetricsSnapshot want = want_reg.Snapshot(0);
  for (const std::string& name : gauges) {
    // A registry holding only this gauge, so that its read is the first.
    SCOPED_TRACE(name);
    const FlowMonitor m = fed(0);
    MetricsRegistry reg;
    m.RegisterMetrics(reg, "flows.");
    for (const std::string& other : gauges) {
      if (other != name) {
        reg.Remove(other);
      }
    }
    const MetricsSnapshot got = reg.Snapshot(0);
    ASSERT_NE(got.Find(name), nullptr);
    EXPECT_EQ(got.Find(name)->value, want.Find(name)->value);
    EXPECT_EQ(got.Find(name)->count, want.Find(name)->count);
    ref.ExpectSameAs(m);
  }
  {
    SCOPED_TRACE("Merge");
    // B's flows overlap A's last 25, so the merged cells and heavy hitters
    // depend on which packets each side applied before the merge.
    FlowMonitor a = fed(0);
    const FlowMonitor b = fed(20);
    ASSERT_TRUE(a.Merge(b));
    ReferenceMonitor ref_a = fed_reference(flushed, 0);
    const ReferenceMonitor ref_b = fed_reference(flushed, 20);
    ref_a.Merge(ref_b);
    ref_a.ExpectSameAs(a);
    ref_b.ExpectSameAs(b);
  }
}

}  // namespace
}  // namespace taichi::obs
