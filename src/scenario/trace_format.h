// Compact binary packet-trace format ("TCPT"): the record/replay half of the
// scenario engine.
//
// A PacketTrace captures every packet entering every node's accelerator —
// the exact (time, node, queue, IoPacket) tuples at Ingress() call time —
// so any live run's offered load can be replayed byte-identically into a
// fresh cluster: the replayer re-issues the same Ingress() calls at the same
// simulated times, and because the simulator is deterministic, everything
// downstream (sketches, rings, DP service behavior for the same CP regime)
// follows. Re-recording a replay yields the original trace, byte for byte;
// that round trip is the format's correctness test.
//
// Wire layout (little-endian, no padding ambiguity — every field is written
// byte-wise):
//
//   header  (24 bytes): magic "TCPT" | u32 version (=1) | u32 node_count |
//                       u32 reserved (=0) | u64 record_count
//   records (64 bytes each, ascending (time, node, per-node arrival order)):
//       u64 time_ns | u64 id | u64 flow | u64 user_tag |
//       u32 dp_cost_hint | u32 size_bytes |
//       u32 src_ip | u32 dst_ip | u16 src_port | u16 dst_port |
//       u16 node | u16 queue | u8 kind | u8 proto | 6 zero bytes
//
// The fixed 64-byte stride keeps the format seekable and the files dense:
// one million packets is 61 MiB, and a record never allocates.
#ifndef SRC_SCENARIO_TRACE_FORMAT_H_
#define SRC_SCENARIO_TRACE_FORMAT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/hw/io_packet.h"
#include "src/scenario/traffic_source.h"
#include "src/sim/time.h"

namespace taichi::fleet {
class Cluster;
}  // namespace taichi::fleet

namespace taichi::scenario {

inline constexpr uint32_t kPacketTraceMagic = 0x54504354u;  // "TCPT" LE.
inline constexpr uint32_t kPacketTraceVersion = 1;
inline constexpr size_t kPacketTraceHeaderBytes = 24;
inline constexpr size_t kPacketTraceRecordBytes = 64;

// One accelerator-ingress event, node-qualified.
struct PacketRecord {
  sim::SimTime time = 0;  // Ingress() call time in the node's simulation.
  uint16_t node = 0;
  uint16_t queue = 0;
  hw::IoPacket pkt;  // created/ring_push are derived at replay, not stored.

  bool operator==(const PacketRecord& other) const;
};

struct PacketTrace {
  uint32_t node_count = 0;
  std::vector<PacketRecord> records;

  std::string Serialize() const;
  // Strict parse: bad magic, version, truncation or nonzero pad bytes all
  // fail (returns false and leaves *out* untouched on failure).
  static bool Parse(std::string_view bytes, PacketTrace* out);

  bool WriteFile(const std::string& path) const;
  static bool ReadFile(const std::string& path, PacketTrace* out);
};

// Records every node's accelerator-ingress stream through the per-node raw
// taps. Buffers are per-node (nodes step on different threads inside an
// epoch; each buffer is only ever touched by its node's thread) and merged
// into one time-ordered trace by Finish(). Host-side object: it survives
// node crashes — a crashed node's packets stay in the trace up to the crash,
// and a restarted node's tap is re-installed via OnNodeRestart.
class PacketTraceRecorder : public NodeLifecycleListener {
 public:
  explicit PacketTraceRecorder(fleet::Cluster* cluster);
  ~PacketTraceRecorder();
  PacketTraceRecorder(const PacketTraceRecorder&) = delete;
  PacketTraceRecorder& operator=(const PacketTraceRecorder&) = delete;

  // Installs the ingress tap on every alive node. One recorder per cluster;
  // attaching a second would silently replace the first's taps.
  void Attach();
  // Clears the taps (crashed nodes' taps died with their Testbeds).
  void Detach();

  // Merges the per-node buffers into one trace ordered by
  // (time, node, per-node arrival order). The recorder keeps its buffers, so
  // Finish() may be called repeatedly as a run progresses.
  PacketTrace Finish() const;

  uint64_t recorded() const;

  void OnNodeCrash(fleet::Cluster& cluster, size_t node) override;
  void OnNodeRestart(fleet::Cluster& cluster, size_t node) override;

 private:
  void Tap(size_t node);

  fleet::Cluster* cluster_;
  bool attached_ = false;
  std::vector<std::vector<PacketRecord>> per_node_;
};

// Replays a PacketTrace as a TrafficSource: per node, one chained event
// walks the node's records in order and re-issues Ingress() at the recorded
// times. Records behind the fleet clock at Start(), and records for a node
// or an eNIC queue this cluster lacks, are skipped (counted in
// dropped_late()); a trace recorded from boot replays in full.
class PacketTraceReplayer : public TrafficSource {
 public:
  explicit PacketTraceReplayer(PacketTrace trace);

  const char* name() const override { return "trace-replay"; }
  void Start(fleet::Cluster& cluster) override;
  void Stop(fleet::Cluster& cluster) override;
  bool running() const override { return running_; }

  // A crashed node's pending injections die with its simulation; the cursor
  // then skips everything up to the restart point, mirroring the packets a
  // dead NIC never saw.
  void OnNodeCrash(fleet::Cluster& cluster, size_t node) override;
  void OnNodeRestart(fleet::Cluster& cluster, size_t node) override;

  uint64_t injected() const;
  uint64_t dropped_late() const;

 private:
  void ScheduleNext(fleet::Cluster& cluster, size_t node);
  void InjectRun(fleet::Cluster& cluster, size_t node);

  PacketTrace trace_;
  // Per-node index ranges into trace_.records (records are time-ordered;
  // each node's subsequence is extracted once at Start()). All mutable
  // per-node state — cursors and counters — is striped by node, because the
  // injection events run inside the node simulations, which step on
  // different threads within an epoch.
  std::vector<std::vector<size_t>> per_node_;
  std::vector<size_t> cursor_;
  std::vector<uint64_t> injected_per_node_;
  std::vector<uint64_t> dropped_per_node_;  // Late, or on a missing queue.
  uint64_t dropped_unmapped_ = 0;  // Records for nodes this cluster lacks.
  bool running_ = false;
};

}  // namespace taichi::scenario

#endif  // SRC_SCENARIO_TRACE_FORMAT_H_
