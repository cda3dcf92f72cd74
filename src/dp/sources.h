// Open-loop traffic sources: Poisson, constant-rate and MMPP (bursty)
// arrival processes feeding accelerator queues. Closed-loop clients live in
// the experiment harness because they depend on end-to-end path wiring.
#ifndef SRC_DP_SOURCES_H_
#define SRC_DP_SOURCES_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/hw/accelerator.h"
#include "src/sim/random.h"
#include "src/sim/simulation.h"
#include "src/sim/stats.h"

namespace taichi::dp {

// Spoofed-attacker source addresses live in TEST-NET-2 (198.51.100.0/24) so
// scenario assertions can recognize adversarial flows by prefix.
inline constexpr uint32_t kAttackSrcBase = 0xc6336400u;
inline constexpr uint32_t kAttackSrcMask = 0xffffff00u;

struct OpenLoopConfig {
  enum class Process : uint8_t { kPoisson, kConstant, kMmpp };

  double rate_pps = 100000;  // Mean rate (in the low state, for kMmpp).
  uint32_t size_bytes = 64;
  Process process = Process::kPoisson;
  hw::IoKind kind = hw::IoKind::kNetRx;
  uint64_t flow = 0;
  uint64_t user_tag = 0;  // Stamped on every generated packet.

  // Synthetic 5-tuple population for the sketch observability layer. Each
  // packet's FlowKey is drawn from `flow_count` distinct flows with a
  // Zipf-like skew (low ranks get most packets; higher `flow_skew` is more
  // skewed). The draw hashes the packet counter — it consumes NO Rng state
  // and injects NO timing, so enabling many flows changes telemetry only,
  // never the schedule. flow_count <= 1 pins the single key derived from
  // `flow`. RSS queueing still keys on `flow`, untouched.
  uint32_t flow_count = 1;
  double flow_skew = 1.3;

  // Fleet-scale flow identity: a nonzero salt gives this source a distinct
  // flow population (distinct hash stream AND distinct served endpoint), so
  // per-node salts make fleet-merged distinct-flow counts scale with node
  // count instead of every node re-emitting the same tuples. Same
  // counter-hash mechanism as flow_count: telemetry identity only — no Rng
  // state, no timing, and RSS queueing still keys on `flow`, untouched.
  // 0 (the default) emits byte-identical keys to the pre-salt scheme.
  uint64_t flow_salt = 0;

  // Adversarial flow identity: when > 0 the source emits a DDoS-shaped
  // population instead of the Zipf mix — `attack_sources` spoofed source IPs
  // in the TEST-NET-2 block (198.51.100.0/24) hammering one victim endpoint
  // over UDP, packets spread uniformly across the attackers (Zipf-busting:
  // every attacker flow is heavy). Same counter-hash mechanism: no Rng
  // state, no timing effect, telemetry identity only.
  uint32_t attack_sources = 0;

  // MMPP: alternating low/high states; the high state multiplies the rate.
  double burst_multiplier = 8.0;
  sim::Duration burst_mean = sim::Millis(2);
  sim::Duration calm_mean = sim::Millis(20);
};

// The Zipf-like flow-rank draw behind OpenLoopConfig::flow_count/flow_skew:
// a 53-bit draw k maps to rank(k) = min(N-1, floor(N^((k * 2^-53)^s)) - 1).
// That is a step function of k, with step j (rank j from here up) at
// k_j = 2^53 * (ln(j+1) / ln N)^(1/s). Rank() looks k up among the tabulated
// steps instead of calling pow twice, and falls back to the formula within
// kGuard draw units of any step, so it returns exactly what the formula
// would. The lookup starts from a bucket index: the draw range splits into
// 2^kBucketBits equal buckets, and for each bucket edge the table keeps the
// last step at or below it, so a draw's binary search runs only over the
// steps between its bucket's two edges (one or two at N = 256, where a search
// of the whole table takes nine probes).
//
// Why kGuard = 2^20 suffices: each pow is within 1 ulp, so the computed
// N^(u^s) is within about 2^-47 (relative) of the true value (ln N < 23).
// The computed rank can therefore leave the true step function only within
// about 100/s draw units of a true step, and a tabulated step lies within a
// few units of its true position. The fallback takes about 2*N*kGuard/2^53
// of draws (6e-8 at N = 256). Where that bound fails (s < 0.01, s not
// finite) or the table would be large (N > 2^16), Rank() always uses the
// formula.
class ZipfRanks {
 public:
  static constexpr int64_t kGuard = int64_t{1} << 20;
  // Buckets of 2^(53 - kBucketBits) draws; the index takes 16 KiB.
  static constexpr int kBucketBits = 12;

  // The immutable table for (flow_count, skew), shared by every holder:
  // built by the first caller, freed with the last holder. Thread-safe.
  static std::shared_ptr<const ZipfRanks> Shared(uint32_t flow_count, double skew);

  // Builds the table (Shared() is the way to get one).
  ZipfRanks(uint32_t flow_count, double skew);

  // rank(draw) for a draw in [0, 2^53). Branch-free search, allocation-free.
  uint64_t Rank(uint64_t draw) const;
  // The formula itself: two pow calls.
  static uint64_t FormulaRank(uint64_t draw, uint32_t flow_count, double skew);

 private:
  uint32_t flow_count_;
  double skew_;
  // -inf sentinel, k_1 .. k_{N-1}, +inf sentinel; empty when Rank() always
  // uses the formula.
  std::vector<int64_t> steps_;
  // 2^kBucketBits + 1 entries: entry b is the index in steps_ of the last
  // step at or below b * 2^(53 - kBucketBits). Empty with steps_.
  std::vector<uint32_t> bucket_steps_;
};

class OpenLoopSource {
 public:
  OpenLoopSource(sim::Simulation* sim, hw::Accelerator* accel, uint32_t queue,
                 OpenLoopConfig config, uint64_t seed);

  void Start();
  void Stop() {
    running_ = false;
    if (event_ != sim::kInvalidEventId) {
      sim_->Cancel(event_);
      event_ = sim::kInvalidEventId;
    }
  }
  bool running() const { return running_; }
  // A rate <= 0 parks the arrival event at its next firing; raising it again
  // re-arms a running, parked source.
  void set_rate(double pps);

  // The experiment sink forwards per-packet completions here.
  void OnDelivered(const hw::IoPacket& pkt, sim::SimTime completed);

  uint64_t injected() const { return injected_.value(); }
  uint64_t delivered() const { return delivered_.value(); }
  uint64_t delivered_bytes() const { return delivered_bytes_.value(); }
  const sim::Summary& latency_us() const { return latency_us_; }

  // Registers as "<prefix>.*"; Testbed uses "src<i>".
  void RegisterMetrics(obs::MetricsRegistry& registry, const std::string& prefix) const {
    registry.AddCounter(prefix + ".injected", &injected_);
    registry.AddCounter(prefix + ".delivered", &delivered_);
    registry.AddCounter(prefix + ".delivered_bytes", &delivered_bytes_);
    registry.AddSummary(prefix + ".latency_us", &latency_us_);
  }

 private:
  void ScheduleNext();
  double CurrentRate() const;
  sim::Duration NextGap();
  obs::FlowKey MakeFlowKey(uint64_t packet_index) const;

  sim::Simulation* sim_;
  hw::Accelerator* accel_;
  uint32_t queue_;
  OpenLoopConfig config_;
  // Per-source constant of the flow-key draw: h = Mix64(draw_salt_ ^ index).
  uint64_t draw_salt_;
  // Zipf rank table (null unless the source draws from flow_count > 1 flows).
  std::shared_ptr<const ZipfRanks> zipf_;
  sim::Rng rng_;
  // The repeating arrival event; re-keyed with a fresh gap per packet.
  sim::EventId event_ = sim::kInvalidEventId;
  bool running_ = false;
  bool burst_state_ = false;
  sim::SimTime state_until_ = 0;
  uint64_t next_id_ = 1;
  sim::Counter injected_;
  sim::Counter delivered_;
  sim::Counter delivered_bytes_;
  sim::Summary latency_us_;
};

}  // namespace taichi::dp

#endif  // SRC_DP_SOURCES_H_
