#include "src/dp/sources.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <mutex>
#include <utility>

#include "src/obs/sketch/sketch_hash.h"

namespace taichi::dp {

namespace {

// Tables stop at 2^16 steps (512 KiB); larger populations use the formula.
constexpr uint32_t kMaxTabulatedFlows = uint32_t{1} << 16;
// Below this skew the 100/s error bound approaches kGuard.
constexpr double kMinTabulatedSkew = 0.01;
// Far outside [0, 2^53) so that k - steps_[i] cannot overflow.
constexpr int64_t kSentinel = int64_t{1} << 62;
constexpr int kBucketShift = 53 - ZipfRanks::kBucketBits;
constexpr uint64_t kLastBucket = (uint64_t{1} << ZipfRanks::kBucketBits) - 1;

uint64_t DrawSalt(const OpenLoopConfig& c) {
  if (c.attack_sources > 0) {
    return obs::sketch::Mix64(c.flow ^ 0xddb05ULL);
  }
  // The salt multiplies through a large odd constant so per-node streams
  // decorrelate; salt 0 contributes nothing and reproduces the unsalted
  // draw bit for bit.
  return obs::sketch::Mix64(c.flow ^ 0xf10f5ULL) ^ (c.flow_salt * 0x9e3779b97f4a7c15ULL);
}

}  // namespace

ZipfRanks::ZipfRanks(uint32_t flow_count, double skew)
    : flow_count_(flow_count), skew_(skew) {
  if (flow_count < 2 || flow_count > kMaxTabulatedFlows || !std::isfinite(skew) ||
      skew < kMinTabulatedSkew) {
    return;
  }
  steps_.reserve(size_t{flow_count} + 1);
  steps_.push_back(-kSentinel);
  const double log_n = std::log(static_cast<double>(flow_count));
  for (uint32_t j = 1; j < flow_count; ++j) {
    const double u = std::pow(std::log(j + 1.0) / log_n, 1.0 / skew);
    steps_.push_back(std::llround(std::ldexp(u, 53)));
  }
  steps_.push_back(kSentinel);
  // Steps never decrease, so one sweep finds every bucket edge's last step;
  // the +inf sentinel stops it.
  bucket_steps_.resize(kLastBucket + 2);
  uint32_t i = 0;
  for (uint64_t b = 0; b < bucket_steps_.size(); ++b) {
    const int64_t edge = static_cast<int64_t>(b << kBucketShift);
    while (steps_[i + 1] <= edge) {
      ++i;
    }
    bucket_steps_[b] = i;
  }
}

std::shared_ptr<const ZipfRanks> ZipfRanks::Shared(uint32_t flow_count, double skew) {
  static std::mutex mu;
  static std::map<std::pair<uint32_t, uint64_t>, std::weak_ptr<const ZipfRanks>> tables;
  std::lock_guard<std::mutex> lock(mu);
  std::weak_ptr<const ZipfRanks>& slot =
      tables[{flow_count, std::bit_cast<uint64_t>(skew)}];
  std::shared_ptr<const ZipfRanks> table = slot.lock();
  if (table == nullptr) {
    table = std::make_shared<const ZipfRanks>(flow_count, skew);
    slot = table;
  }
  return table;
}

uint64_t ZipfRanks::FormulaRank(uint64_t draw, uint32_t flow_count, double skew) {
  const double u = static_cast<double>(draw) * 0x1.0p-53;
  const double n = static_cast<double>(flow_count);
  const double r = std::pow(n, std::pow(u, skew));
  return std::min<uint64_t>(flow_count - 1, static_cast<uint64_t>(r) - 1);
}

uint64_t ZipfRanks::Rank(uint64_t draw) const {
  if (steps_.empty()) {
    return FormulaRank(draw, flow_count_, skew_);
  }
  // Find the last step <= k. It lies between the last steps at or below the
  // two edges of k's bucket, so base[0] and base[1] bracket k. (A draw past
  // 2^53 searches the last bucket, whose upper edge's step is the last real
  // one: the whole table would find the same step.)
  const int64_t k = static_cast<int64_t>(draw);
  const uint64_t b = std::min(draw >> kBucketShift, kLastBucket);
  const int64_t* base = steps_.data() + bucket_steps_[b];
  size_t len = bucket_steps_[b + 1] - bucket_steps_[b] + 1;
  while (len > 1) {
    const size_t half = len / 2;
    base = base[half] <= k ? base + half : base;
    len -= half;
  }
  if (k - base[0] <= kGuard || base[1] - k <= kGuard) {
    return FormulaRank(draw, flow_count_, skew_);
  }
  return static_cast<uint64_t>(base - steps_.data());
}

OpenLoopSource::OpenLoopSource(sim::Simulation* sim, hw::Accelerator* accel, uint32_t queue,
                               OpenLoopConfig config, uint64_t seed)
    : sim_(sim), accel_(accel), queue_(queue), config_(config),
      draw_salt_(DrawSalt(config)),
      zipf_(config.attack_sources == 0 && config.flow_count > 1
                ? ZipfRanks::Shared(config.flow_count, config.flow_skew)
                : nullptr),
      rng_(seed) {}

void OpenLoopSource::set_rate(double pps) {
  config_.rate_pps = pps;
  if (running_ && event_ == sim::kInvalidEventId) {
    ScheduleNext();  // Parked at rate <= 0 (or started there): re-arm.
  }
}

void OpenLoopSource::Start() {
  if (running_) {
    return;
  }
  running_ = true;
  if (config_.process == OpenLoopConfig::Process::kMmpp) {
    burst_state_ = false;
    state_until_ = sim_->Now() + rng_.ExpDuration(config_.calm_mean);
  }
  ScheduleNext();
}

double OpenLoopSource::CurrentRate() const {
  if (config_.process == OpenLoopConfig::Process::kMmpp && burst_state_) {
    return config_.rate_pps * config_.burst_multiplier;
  }
  return config_.rate_pps;
}

obs::FlowKey OpenLoopSource::MakeFlowKey(uint64_t packet_index) const {
  if (config_.attack_sources > 0) {
    // DDoS mode: few spoofed attackers, uniform share each, one victim.
    const uint64_t rank =
        obs::sketch::Mix64(draw_salt_ ^ packet_index) % config_.attack_sources;
    obs::FlowKey key;
    key.src_ip = kAttackSrcBase | static_cast<uint32_t>(rank & 0xffu);
    key.dst_ip = 0x0a800000u | static_cast<uint32_t>(config_.flow & 0xffffu);
    key.src_port = static_cast<uint16_t>(1024 + rank);
    key.dst_port = 53;  // The classic reflection/flood victim port.
    key.proto = obs::kProtoUdp;
    return key;
  }
  // Counter-hash draw: a uniform 53-bit draw from a mix of (source flow id,
  // packet index), mapped to a Zipf-like rank (ZipfRanks) so rank 0 takes
  // the largest share and the tail thins out. No Rng draws.
  const uint64_t rank =
      zipf_ != nullptr ? zipf_->Rank(obs::sketch::Mix64(draw_salt_ ^ packet_index) >> 11) : 0;
  obs::FlowKey key;
  key.src_ip = 0x0a000000u | static_cast<uint32_t>(rank & 0xffffffu);
  // Salted sources serve per-node endpoint blocks (32 sources per salt in
  // 23 bits of 10.128/9), so tuples from different nodes never collide
  // fleet-wide; salt 0 keeps the original per-source endpoint exactly.
  const uint32_t dst_low =
      config_.flow_salt == 0
          ? static_cast<uint32_t>(config_.flow & 0xffffu)
          : static_cast<uint32_t>(((config_.flow_salt << 5) + config_.flow) & 0x7fffffu);
  key.dst_ip = 0x0a800000u | dst_low;
  key.src_port = static_cast<uint16_t>(1024 + rank % 60000);
  key.dst_port = config_.kind == hw::IoKind::kNetTx ? 80 : 443;
  key.proto = config_.kind == hw::IoKind::kBlockIo ? obs::kProtoBlock
                                                   : obs::kProtoTcp;
  return key;
}

sim::Duration OpenLoopSource::NextGap() {
  const double gap_ns = 1e9 / CurrentRate();
  if (config_.process == OpenLoopConfig::Process::kConstant) {
    return std::max<sim::Duration>(1, static_cast<sim::Duration>(gap_ns));
  }
  return rng_.ExpDuration(std::max<sim::Duration>(1, static_cast<sim::Duration>(gap_ns)));
}

void OpenLoopSource::ScheduleNext() {
  if (!running_ || CurrentRate() <= 0) {
    return;
  }
  // One repeating event drives the whole arrival process: each firing
  // injects a packet and re-keys the event with the next (possibly
  // burst-state-dependent) gap, so the per-packet path builds no closures.
  // The gap draw stays after the injection, preserving the RNG draw order of
  // the schedule-per-packet pattern this replaces.
  const sim::Duration first = NextGap();
  event_ = sim_->ScheduleRepeating(first, first, [this] {
    if (!running_ || CurrentRate() <= 0) {
      sim_->Cancel(event_);
      event_ = sim::kInvalidEventId;
      return;
    }
    if (config_.process == OpenLoopConfig::Process::kMmpp && sim_->Now() >= state_until_) {
      burst_state_ = !burst_state_;
      state_until_ = sim_->Now() + rng_.ExpDuration(burst_state_ ? config_.burst_mean
                                                                 : config_.calm_mean);
    }
    hw::IoPacket pkt;
    pkt.id = next_id_++;
    pkt.kind = config_.kind;
    pkt.queue = queue_;
    pkt.size_bytes = config_.size_bytes;
    pkt.flow = config_.flow;
    pkt.flow_key = MakeFlowKey(pkt.id);
    pkt.user_tag = config_.user_tag;
    pkt.created = sim_->Now();
    injected_.Inc();
    accel_->Ingress(queue_, pkt);
    sim_->Reschedule(event_, NextGap());
  });
}

void OpenLoopSource::OnDelivered(const hw::IoPacket& pkt, sim::SimTime completed) {
  delivered_.Inc();
  delivered_bytes_.Inc(pkt.size_bytes);
  latency_us_.Add(sim::ToMicros(completed - pkt.created));
}

}  // namespace taichi::dp
