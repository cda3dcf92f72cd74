#include "src/scenario/trace_format.h"

#include <algorithm>
#include <fstream>

#include "src/fleet/cluster.h"
#include "src/sim/logging.h"

namespace taichi::scenario {

namespace {

void PutU16(std::string& out, uint16_t v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>((v >> 8) & 0xff));
}

void PutU32(std::string& out, uint32_t v) {
  PutU16(out, static_cast<uint16_t>(v & 0xffff));
  PutU16(out, static_cast<uint16_t>(v >> 16));
}

void PutU64(std::string& out, uint64_t v) {
  PutU32(out, static_cast<uint32_t>(v & 0xffffffffu));
  PutU32(out, static_cast<uint32_t>(v >> 32));
}

uint16_t GetU16(const unsigned char* p) {
  return static_cast<uint16_t>(p[0] | (p[1] << 8));
}

uint32_t GetU32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) | (static_cast<uint32_t>(p[3]) << 24);
}

uint64_t GetU64(const unsigned char* p) {
  return static_cast<uint64_t>(GetU32(p)) | (static_cast<uint64_t>(GetU32(p + 4)) << 32);
}

}  // namespace

bool PacketRecord::operator==(const PacketRecord& other) const {
  return time == other.time && node == other.node && queue == other.queue &&
         pkt.id == other.pkt.id && pkt.kind == other.pkt.kind &&
         pkt.size_bytes == other.pkt.size_bytes && pkt.flow == other.pkt.flow &&
         pkt.user_tag == other.pkt.user_tag && pkt.dp_cost_hint == other.pkt.dp_cost_hint &&
         pkt.flow_key.src_ip == other.pkt.flow_key.src_ip &&
         pkt.flow_key.dst_ip == other.pkt.flow_key.dst_ip &&
         pkt.flow_key.src_port == other.pkt.flow_key.src_port &&
         pkt.flow_key.dst_port == other.pkt.flow_key.dst_port &&
         pkt.flow_key.proto == other.pkt.flow_key.proto;
}

std::string PacketTrace::Serialize() const {
  std::string out;
  out.reserve(kPacketTraceHeaderBytes + records.size() * kPacketTraceRecordBytes);
  PutU32(out, kPacketTraceMagic);
  PutU32(out, kPacketTraceVersion);
  PutU32(out, node_count);
  PutU32(out, 0);  // Reserved.
  PutU64(out, static_cast<uint64_t>(records.size()));
  for (const PacketRecord& r : records) {
    PutU64(out, static_cast<uint64_t>(r.time));
    PutU64(out, r.pkt.id);
    PutU64(out, r.pkt.flow);
    PutU64(out, r.pkt.user_tag);
    PutU32(out, r.pkt.dp_cost_hint);
    PutU32(out, r.pkt.size_bytes);
    PutU32(out, r.pkt.flow_key.src_ip);
    PutU32(out, r.pkt.flow_key.dst_ip);
    PutU16(out, r.pkt.flow_key.src_port);
    PutU16(out, r.pkt.flow_key.dst_port);
    PutU16(out, r.node);
    PutU16(out, r.queue);
    out.push_back(static_cast<char>(r.pkt.kind));
    out.push_back(static_cast<char>(r.pkt.flow_key.proto));
    PutU16(out, 0);  // Zero pad to the 64-byte stride, checked on parse.
    PutU32(out, 0);
  }
  return out;
}

bool PacketTrace::Parse(std::string_view bytes, PacketTrace* out) {
  if (bytes.size() < kPacketTraceHeaderBytes) {
    return false;
  }
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
  if (GetU32(p) != kPacketTraceMagic || GetU32(p + 4) != kPacketTraceVersion ||
      GetU32(p + 12) != 0) {
    return false;
  }
  const uint32_t node_count = GetU32(p + 8);
  const uint64_t count = GetU64(p + 16);
  // Divide rather than multiply: a forged count of 2^58 or more would wrap
  // count * 64 back onto the real body size.
  const size_t body = bytes.size() - kPacketTraceHeaderBytes;
  if (body % kPacketTraceRecordBytes != 0 || count != body / kPacketTraceRecordBytes) {
    return false;
  }
  PacketTrace trace;
  trace.node_count = node_count;
  trace.records.reserve(count);
  const unsigned char* r = p + kPacketTraceHeaderBytes;
  for (uint64_t i = 0; i < count; ++i, r += kPacketTraceRecordBytes) {
    PacketRecord rec;
    rec.time = static_cast<sim::SimTime>(GetU64(r));
    rec.pkt.id = GetU64(r + 8);
    rec.pkt.flow = GetU64(r + 16);
    rec.pkt.user_tag = GetU64(r + 24);
    rec.pkt.dp_cost_hint = GetU32(r + 32);
    rec.pkt.size_bytes = GetU32(r + 36);
    rec.pkt.flow_key.src_ip = GetU32(r + 40);
    rec.pkt.flow_key.dst_ip = GetU32(r + 44);
    rec.pkt.flow_key.src_port = GetU16(r + 48);
    rec.pkt.flow_key.dst_port = GetU16(r + 50);
    rec.node = GetU16(r + 52);
    rec.queue = GetU16(r + 54);
    if (r[56] > static_cast<unsigned char>(hw::IoKind::kBlockIo) || GetU16(r + 58) != 0 ||
        GetU32(r + 60) != 0) {
      return false;
    }
    rec.pkt.kind = static_cast<hw::IoKind>(r[56]);
    rec.pkt.flow_key.proto = r[57];
    rec.pkt.queue = rec.queue;
    trace.records.push_back(rec);
  }
  *out = std::move(trace);
  return true;
}

bool PacketTrace::WriteFile(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    TAICHI_ERROR(0, "trace_format: cannot open %s for writing", path.c_str());
    return false;
  }
  const std::string bytes = Serialize();
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return out.good();
}

bool PacketTrace::ReadFile(const std::string& path, PacketTrace* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    TAICHI_ERROR(0, "trace_format: cannot open %s", path.c_str());
    return false;
  }
  std::string bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  if (!Parse(bytes, out)) {
    TAICHI_ERROR(0, "trace_format: %s is not a valid TCPT v%u trace", path.c_str(),
                 kPacketTraceVersion);
    return false;
  }
  return true;
}

// --- PacketTraceRecorder -----------------------------------------------------

PacketTraceRecorder::PacketTraceRecorder(fleet::Cluster* cluster)
    : cluster_(cluster), per_node_(cluster->size()) {}

PacketTraceRecorder::~PacketTraceRecorder() {
  if (attached_) {
    Detach();
  }
}

void PacketTraceRecorder::Tap(size_t node) {
  exp::Testbed& bed = cluster_->node(node);
  exp::Testbed* bedp = &bed;
  std::vector<PacketRecord>* buffer = &per_node_[node];
  bed.SetIngressTap([bedp, buffer, node](uint32_t queue, const hw::IoPacket& pkt) {
    PacketRecord rec;
    rec.time = bedp->sim().Now();
    rec.node = static_cast<uint16_t>(node);
    rec.queue = static_cast<uint16_t>(queue);
    rec.pkt = pkt;
    buffer->push_back(rec);
  });
}

void PacketTraceRecorder::Attach() {
  attached_ = true;
  for (size_t i = 0; i < cluster_->size(); ++i) {
    if (cluster_->alive(i)) {
      Tap(i);
    }
  }
}

void PacketTraceRecorder::Detach() {
  attached_ = false;
  for (size_t i = 0; i < cluster_->size(); ++i) {
    if (cluster_->alive(i)) {
      cluster_->node(i).SetIngressTap(nullptr);
    }
  }
}

void PacketTraceRecorder::OnNodeCrash(fleet::Cluster&, size_t) {
  // The tap dies with the Testbed; the buffer (everything recorded up to the
  // crash) is ours and stays.
}

void PacketTraceRecorder::OnNodeRestart(fleet::Cluster&, size_t node) {
  if (attached_) {
    Tap(node);
  }
}

uint64_t PacketTraceRecorder::recorded() const {
  uint64_t total = 0;
  for (const auto& buffer : per_node_) {
    total += buffer.size();
  }
  return total;
}

PacketTrace PacketTraceRecorder::Finish() const {
  PacketTrace trace;
  trace.node_count = static_cast<uint32_t>(cluster_->size());
  trace.records.reserve(recorded());
  for (const auto& buffer : per_node_) {
    trace.records.insert(trace.records.end(), buffer.begin(), buffer.end());
  }
  // Each per-node buffer is already time-ordered (sim time is monotonic);
  // the stable sort interleaves nodes by (time, node) while preserving each
  // node's arrival order within a timestamp.
  std::stable_sort(trace.records.begin(), trace.records.end(),
                   [](const PacketRecord& a, const PacketRecord& b) {
                     return a.time != b.time ? a.time < b.time : a.node < b.node;
                   });
  return trace;
}

// --- PacketTraceReplayer -----------------------------------------------------

PacketTraceReplayer::PacketTraceReplayer(PacketTrace trace) : trace_(std::move(trace)) {}

void PacketTraceReplayer::Start(fleet::Cluster& cluster) {
  if (running_) {
    TAICHI_ERROR(cluster.Now(), "trace_replay: Start called twice");
    return;
  }
  running_ = true;
  per_node_.assign(cluster.size(), {});
  cursor_.assign(cluster.size(), 0);
  injected_per_node_.assign(cluster.size(), 0);
  dropped_per_node_.assign(cluster.size(), 0);
  for (size_t i = 0; i < trace_.records.size(); ++i) {
    const size_t node = trace_.records[i].node;
    if (node < per_node_.size()) {
      per_node_[node].push_back(i);
    } else {
      ++dropped_unmapped_;  // Trace has more nodes than this cluster.
    }
  }
  for (size_t node = 0; node < cluster.size(); ++node) {
    if (cluster.alive(node)) {
      ScheduleNext(cluster, node);
    }
  }
}

void PacketTraceReplayer::ScheduleNext(fleet::Cluster& cluster, size_t node) {
  exp::Testbed& bed = cluster.node(node);
  const sim::SimTime now = bed.sim().Now();
  const std::vector<size_t>& ids = per_node_[node];
  size_t& cur = cursor_[node];
  // Records behind the node's clock can no longer be injected on time; a
  // replay started mid-trace (or a node that was down) skips them.
  while (cur < ids.size() && trace_.records[ids[cur]].time < now) {
    ++cur;
    ++dropped_per_node_[node];
  }
  if (cur >= ids.size()) {
    return;
  }
  fleet::Cluster* cl = &cluster;
  bed.sim().At(trace_.records[ids[cur]].time, [this, cl, node] { InjectRun(*cl, node); });
}

void PacketTraceReplayer::InjectRun(fleet::Cluster& cluster, size_t node) {
  if (!running_) {
    return;
  }
  exp::Testbed& bed = cluster.node(node);
  const sim::SimTime now = bed.sim().Now();
  const std::vector<size_t>& ids = per_node_[node];
  size_t& cur = cursor_[node];
  hw::Accelerator& accelerator = bed.machine().accelerator();
  // All of this node's records at `now` go in, in recorded order.
  while (cur < ids.size() && trace_.records[ids[cur]].time == now) {
    const PacketRecord& rec = trace_.records[ids[cur]];
    ++cur;
    if (rec.queue >= accelerator.queue_count()) {
      ++dropped_per_node_[node];  // The trace names a queue this NIC lacks.
      continue;
    }
    hw::IoPacket pkt = rec.pkt;
    pkt.created = now;
    pkt.ring_push = 0;
    accelerator.Ingress(rec.queue, pkt);
    ++injected_per_node_[node];
  }
  ScheduleNext(cluster, node);
}

void PacketTraceReplayer::Stop(fleet::Cluster& cluster) {
  if (!running_) {
    return;
  }
  running_ = false;
  // Pending per-node events check running_ when they fire; nothing to cancel
  // eagerly (and a crashed node's event already died with its simulation).
  (void)cluster;
}

void PacketTraceReplayer::OnNodeCrash(fleet::Cluster&, size_t) {
  // The chained injection event dies with the node's simulation; the cursor
  // stays where the crash caught it.
}

void PacketTraceReplayer::OnNodeRestart(fleet::Cluster& cluster, size_t node) {
  if (running_) {
    // Skips everything the dead NIC never saw, then resumes on time.
    ScheduleNext(cluster, node);
  }
}

uint64_t PacketTraceReplayer::injected() const {
  uint64_t total = 0;
  for (uint64_t n : injected_per_node_) {
    total += n;
  }
  return total;
}

uint64_t PacketTraceReplayer::dropped_late() const {
  uint64_t total = dropped_unmapped_;
  for (uint64_t n : dropped_per_node_) {
    total += n;
  }
  return total;
}

}  // namespace taichi::scenario
