// The canonical Fig. 3 fleet mix and the scripted generators layered on it.
//
// Fig3Source is the mix itself (the baseline named source) and the base of
// every generator here: it alone owns the fleet::LoadGen and implements the
// TrafficSource surface once — Start/Stop, running, live migration, the
// crash/restart forwarding and a generator's epoch hook. Each generator adds
// one adversarial or time-varying dimension in Fig3Source's protected hooks:
//
//   DiurnalSource  the whole fleet breathes: a sinusoidal day/night curve
//                  scales both the DP packet rates and the VM-startup
//                  arrival rate between a trough and a peak factor.
//   IncastSource   periodic fan-in bursts: many synchronized senders hit
//                  one victim node at once, the classic partition/aggregate
//                  microburst that stresses ring depth and poll latency.
//   DdosSource     a volumetric flood from a handful of spoofed TEST-NET-2
//                  source IPs (dp::OpenLoopConfig::attack_sources) pinned at
//                  chosen victim nodes. Under Tai Chi the flood eats the DP
//                  idle the framework would otherwise donate, so the victim
//                  nodes' VM-startup p99 rises, the SLO monitor flags them
//                  as hotspots, and the sketch attribution names the
//                  attacker flows — the end-to-end detection story the
//                  scenario suite asserts.
//   SurgeSource    a fleet-wide VM-arrival surge for a fixed window: the
//                  overload the autopilot's graceful degradation absorbs.
//
// All extra per-node state (the attack/incast OpenLoopSources) is owned by
// the generator but driven by events inside the victim node's simulation,
// so nodes still never share mutable state and `--threads` stays
// byte-identical. Crash notifications drop the per-node objects (their
// simulation pointers die with the Testbed); restarts rebuild them.
#ifndef SRC_SCENARIO_GENERATORS_H_
#define SRC_SCENARIO_GENERATORS_H_

#include <memory>
#include <utility>
#include <vector>

#include "src/fleet/load_gen.h"
#include "src/scenario/traffic_source.h"

namespace taichi::scenario {

// Owner ids (Testbed::Tag) for generator-injected packets. Distinct from the
// background owner so delivery-sink lookups drop them instead of corrupting
// the background sources' latency accounting.
inline constexpr uint16_t kIncastOwner = 0x10ca;
inline constexpr uint16_t kAttackOwner = 0xadd0;

// --- Fig. 3 mix --------------------------------------------------------------

// The baseline named source: the Fig. 3 mix and nothing else. Builds its
// LoadGen at Start, so a spec can exist before its cluster does. A second
// Start is refused with a TAICHI_ERROR naming the source.
class Fig3Source : public TrafficSource {
 public:
  explicit Fig3Source(fleet::LoadGenConfig load) : load_(std::move(load)) {}

  const char* name() const override { return "fig3-mix"; }
  void Start(fleet::Cluster& cluster) final;
  void Stop(fleet::Cluster& cluster) final;
  bool running() const final { return gen_ != nullptr && gen_->running(); }

  void OnNodeCrash(fleet::Cluster& cluster, size_t node) final;
  void OnNodeRestart(fleet::Cluster& cluster, size_t node) final;
  double VmShare(size_t node) const final { return gen_ ? gen_->VmShare(node) : 1.0; }
  bool MigrateVmShare(size_t from, size_t to, double units) final {
    return gen_ != nullptr && gen_->MigrateVmShare(from, to, units);
  }

 protected:
  // What a generator adds: run after the mix started, before it stops, and
  // after it handled a node crash or restart.
  virtual void AfterStart(fleet::Cluster&) {}
  virtual void BeforeStop(fleet::Cluster&) {}
  virtual void AfterCrash(fleet::Cluster&, size_t) {}
  virtual void AfterRestart(fleet::Cluster&, size_t) {}

  // The running mix (valid from Start on).
  fleet::LoadGen& gen() { return *gen_; }

  // Runs `hook` at every epoch boundary from now until Stop, which removes
  // it after BeforeStop and before the mix stops. Call from AfterStart.
  void AddEpochHook(fleet::Cluster& cluster, fleet::Cluster::EpochHook hook);

 private:
  fleet::LoadGenConfig load_;
  std::unique_ptr<fleet::LoadGen> gen_;
  uint64_t hook_id_ = 0;
};

// --- Diurnal -----------------------------------------------------------------

struct DiurnalConfig {
  fleet::LoadGenConfig load;
  sim::Duration period = sim::Millis(400);  // One simulated "day".
  double trough = 0.50;                     // Load factor at the bottom...
  double peak = 1.40;                       // ...and at the top of the day.
};

class DiurnalSource : public Fig3Source {
 public:
  explicit DiurnalSource(DiurnalConfig config) : Fig3Source(config.load), config_(config) {}

  const char* name() const override { return "diurnal"; }

 protected:
  void AfterStart(fleet::Cluster& cluster) override;
  void AfterRestart(fleet::Cluster& cluster, size_t node) override;

 private:
  void Modulate(fleet::Cluster& cluster, sim::SimTime now);

  DiurnalConfig config_;
  sim::SimTime day_zero_ = 0;
  double factor_ = 1.0;  // The current day/night factor.
};

// --- Incast ------------------------------------------------------------------

struct IncastConfig {
  fleet::LoadGenConfig load;
  int victim = 0;
  int fan_in = 24;               // Synchronized senders per burst.
  double per_sender_pps = 30000;  // Each sender's rate while bursting.
  uint32_t size_bytes = 1024;
  sim::Duration period = sim::Millis(40);
  sim::Duration burst = sim::Millis(4);
  sim::Duration start_after = sim::Millis(20);
  uint64_t flow_base = 0x10ca0000;
};

class IncastSource : public Fig3Source {
 public:
  explicit IncastSource(IncastConfig config) : Fig3Source(config.load), config_(config) {}

  const char* name() const override { return "incast"; }

 protected:
  void AfterStart(fleet::Cluster& cluster) override;
  void BeforeStop(fleet::Cluster& cluster) override;
  void AfterCrash(fleet::Cluster& cluster, size_t node) override;
  void AfterRestart(fleet::Cluster& cluster, size_t node) override;

 private:
  void Build(fleet::Cluster& cluster);
  void ScheduleBurst(fleet::Cluster& cluster, sim::Duration delay);
  void BurstOn(fleet::Cluster& cluster);
  void BurstOff(fleet::Cluster& cluster);

  IncastConfig config_;
  // Touched only by the victim node's thread once the run starts.
  std::vector<std::unique_ptr<dp::OpenLoopSource>> senders_;
  bool armed_ = false;
};

// --- DDoS --------------------------------------------------------------------

// The defaults are the one shape every caller floods with: one victim at
// moderate intensity, so the victim's tail rises while the other nodes
// anchor the fleet percentile — exactly the contrast the hotspot rule (node
// tail > factor x fleet tail) keys on. Saturating many nodes makes the
// victims BE the fleet tail and hides them.
struct DdosConfig {
  fleet::LoadGenConfig load;
  std::vector<int> targets = {0};  // Attacked node indices.
  uint32_t attackers = 12;         // Spoofed TEST-NET-2 source IPs.
  // Flood intensity per victim DP queue, as the DP utilization the flood
  // alone would consume. High enough and the donated idle Tai Chi feeds the
  // control plane with disappears on the victims.
  double utilization = 0.50;
  uint32_t size_bytes = 512;
  // The flood runs from here until Stop(). 100 ms is on before a scenario's
  // 200 ms warmup ends, so every observed window sees it.
  sim::Duration start_after = sim::Millis(100);
  uint64_t flow_base = 0xdd05;  // One victim service endpoint.
};

class DdosSource : public Fig3Source {
 public:
  explicit DdosSource(DdosConfig config) : Fig3Source(config.load), config_(std::move(config)) {}

  const char* name() const override { return "ddos"; }

 protected:
  void AfterStart(fleet::Cluster& cluster) override;
  void BeforeStop(fleet::Cluster& cluster) override;
  void AfterCrash(fleet::Cluster& cluster, size_t node) override;
  void AfterRestart(fleet::Cluster& cluster, size_t node) override;

 private:
  bool IsTarget(size_t node) const;
  void ArmNode(fleet::Cluster& cluster, size_t node, sim::Duration delay);

  DdosConfig config_;
  // per_node_[i] holds node i's flood sources (empty for non-targets);
  // events driving them live inside node i's simulation.
  std::vector<std::vector<std::unique_ptr<dp::OpenLoopSource>>> per_node_;
};

// --- Surge -------------------------------------------------------------------

// Fleet-wide demand surge: the VM-startup arrival rate jumps by `factor`
// during [start, start + duration) and falls back afterwards — the
// "everyone deploys at once" overload the autopilot's graceful-degradation
// path is built for. Only the CP arrival rate moves; the DP background knob
// (ScaleBackgroundLoad) is deliberately left to the autopilot's shedding so
// the two never fight over the same dial. The defaults are long and hard
// enough that even a fully-enabled Tai Chi fleet cannot absorb the surge:
// the autopilot's ladder must fall through migration (no target — every
// node breaches) into shedding.
struct SurgeConfig {
  fleet::LoadGenConfig load;
  sim::SimTime start = sim::Millis(1000);  // Fleet-clock time the surge hits.
  sim::Duration duration = sim::Millis(1200);
  double factor = 6.0;
};

class SurgeSource : public Fig3Source {
 public:
  explicit SurgeSource(SurgeConfig config) : Fig3Source(config.load), config_(config) {}

  const char* name() const override { return "surge"; }

 protected:
  void AfterStart(fleet::Cluster& cluster) override;

 private:
  void Modulate(sim::SimTime now);

  SurgeConfig config_;
  double applied_ = 1.0;  // The surge multiplier currently applied.
};

}  // namespace taichi::scenario

#endif  // SRC_SCENARIO_GENERATORS_H_
