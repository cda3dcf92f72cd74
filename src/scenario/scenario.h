// The scenario runner: one deterministic end-to-end experiment binding a
// fleet, a traffic source, an optional chaos layer and windowed SLO
// observation into a pass/fail verdict.
//
// A run has four phases:
//   warmup    the source ramps, windows are discarded;
//   observed  the SLO monitor samples every `observe_every` and the runner
//             tallies breach windows, hotspot windows and — when heavy-hitter
//             attribution names a flow from the spoofed TEST-NET-2 attack
//             range — attributed windows;
//   drain     chaos is quiesced (pending auto-restarts still fire) and the
//             fleet runs the churn out;
//   verdict   the tallies are scored against the scenario's expectations.
//
// The verdict JSON deliberately carries no thread count and no wall-clock:
// a scenario's report is a pure function of (spec, seed), so CI can `cmp`
// the bytes produced with --threads 1 against --threads 4.
#ifndef SRC_SCENARIO_SCENARIO_H_
#define SRC_SCENARIO_SCENARIO_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/fleet/autopilot.h"
#include "src/fleet/cluster.h"
#include "src/fleet/slo_monitor.h"
#include "src/scenario/chaos.h"
#include "src/scenario/traffic_source.h"

namespace taichi::scenario {

// What a scenario must show to pass. Window counts refer to the observed
// phase's SLO windows (one per `observe_every`).
struct ScenarioExpectations {
  // The observed phase must produce at least this many fleet SLO samples —
  // a verdict over a trickle of samples is noise, not a result.
  size_t min_fleet_samples = 50;
  // Fleet-p99-over-threshold windows: at most this many (healthy scenarios
  // pin this low; adversarial ones leave it unbounded)...
  size_t max_breach_windows = static_cast<size_t>(-1);
  // ...and at least this many (a flood that never hurt anyone is a test
  // bug, not a pass).
  size_t min_breach_windows = 0;
  // Windows in which at least one node was flagged as a hotspot.
  size_t min_hotspot_windows = 0;
  // Require >= 1 window whose hotspot heavy-hitter attribution named a flow
  // from the spoofed attack source range (dp::kAttackSrcBase) — the
  // end-to-end DDoS detection story.
  bool require_attack_attribution = false;
  // Chaos must actually have crashed something.
  bool require_crashes = false;
  // Every node is back up (and no restart is pending) after the drain.
  bool require_full_recovery = true;
  // The run must have shed at least this many packets at RX descriptor
  // rings (summed over alive nodes). Overload scenarios set this: a flood
  // that never overflowed a ring was absorbed, not survived.
  uint64_t min_rx_ring_drops = 0;

  // --- Autopilot expectations (scored only when the spec engages one) ---
  // A window is "unhealthy" when the fleet breaches or any node is a
  // hotspot. Counting observed windows after `fault_at`: the fleet must
  // reach its first healthy window within this many.
  size_t max_recovery_windows = static_cast<size_t>(-1);
  // Longest run of consecutive unhealthy observed windows — the gate for
  // recurring-fault scenarios where "recovered once" is meaningless.
  size_t max_breach_streak = static_cast<size_t>(-1);
  // The autopilot must end the run with Tai Chi on at least one node but
  // fewer total vCPUs than enabling the whole fleet statically would burn.
  bool require_fewer_taichi_cpus = false;
  // Graceful degradation must have fired AND been fully unwound by the end.
  bool require_shed_restored = false;
};

// A fully-specified scenario: cluster shape, traffic, chaos, SLO policy,
// phase durations and expectations. Built by the library (BuildScenario) or
// by hand in tests.
struct ScenarioSpec {
  std::string name;
  std::string description;
  fleet::ClusterConfig cluster;
  // Built at Run() time, after the cluster exists. Must not be null.
  std::function<std::unique_ptr<TrafficSource>(fleet::Cluster&)> make_source;
  // Chaos layer; engaged only when `use_chaos` is set.
  bool use_chaos = false;
  ChaosConfig chaos;
  // Self-healing controller; engaged only when `use_autopilot` is set. The
  // autopilot arms before warmup (it may converge the fleet pre-fault) and
  // registers for chaos lifecycle events after the traffic source.
  bool use_autopilot = false;
  fleet::AutopilotConfig autopilot;
  // Fleet-clock time the scenario's fault lands (flood opens, surge hits);
  // recovery windows are counted from here. 0 = from the first window.
  sim::SimTime fault_at = 0;
  fleet::SloConfig slo;
  sim::Duration warmup = sim::Millis(200);
  sim::Duration observed = sim::Millis(600);
  sim::Duration observe_every = sim::Millis(100);
  sim::Duration drain = sim::Millis(100);
  ScenarioExpectations expect;
};

// One scored expectation in the verdict.
struct ScenarioCheck {
  std::string name;
  bool pass = false;
  std::string detail;  // Human-readable "want X, got Y".
};

struct ScenarioVerdict {
  std::string scenario;
  uint64_t seed = 0;
  int nodes = 0;
  double sim_ms = 0;  // Fleet clock at the end of the run.

  // Observed-phase tallies.
  size_t windows = 0;
  size_t breach_windows = 0;
  size_t hotspot_windows = 0;
  size_t attributed_windows = 0;
  size_t total_samples = 0;
  double worst_fleet_value = 0;  // Max windowed fleet percentile.
  double last_fleet_value = 0;

  // RX shedding over the whole run, summed across nodes alive at the end
  // (a crashed-and-restarted node restarts its counters). Ring drops are
  // descriptor-ring overflow; pool drops are packet-arena exhaustion.
  uint64_t rx_ring_drops = 0;
  uint64_t rx_pool_drops = 0;
  std::vector<uint64_t> node_rx_ring_drops;  // Per node; 0 for dead nodes.

  // Chaos tallies (zero when chaos was off).
  int crashes = 0;
  int restarts = 0;
  int stalls = 0;
  int floods = 0;
  int storms = 0;
  size_t alive_at_end = 0;
  size_t pending_restarts = 0;

  // Autopilot tallies; serialized (and scored) only when `engaged` — a
  // non-autopilot scenario's verdict bytes are unchanged by this feature.
  struct AutopilotStats {
    bool engaged = false;
    size_t recovery_windows = 0;  // Post-fault windows to first healthy one.
    size_t max_breach_streak = 0;
    uint64_t enables = 0;
    uint64_t migrations = 0;
    uint64_t dp_boosts = 0;
    uint64_t dp_reverts = 0;
    uint64_t sheds = 0;
    uint64_t restores = 0;
    uint64_t evictions = 0;
    uint64_t readmits = 0;
    uint64_t backoffs = 0;
    double shed_factor = 1.0;
    int enabled_nodes = 0;
    int enabled_vcpus = 0;
    int static_vcpus = 0;  // What enabling every node would cost.
    std::vector<fleet::Autopilot::Decision> decisions;
  };
  AutopilotStats autopilot;

  bool pass = false;
  std::vector<ScenarioCheck> checks;

  // Deterministic report: a pure function of (spec, seed) — no thread
  // count, no wall clock, byte-identical across --threads values.
  std::string ToJson() const;
};

// Returns true when a heavy flow's source sits in the spoofed attack range.
bool IsAttackFlow(const fleet::SloMonitor::HeavyFlow& flow);

class ScenarioRunner {
 public:
  explicit ScenarioRunner(ScenarioSpec spec);

  // Executes warmup -> observed -> drain and scores the verdict. Call once.
  ScenarioVerdict Run();

  // Valid after construction; the cluster outlives Run() so callers can
  // pull traces/flow sketches for sidecar outputs.
  fleet::Cluster& cluster() { return *cluster_; }
  // One SLO report per observed window, in order (valid after Run()).
  const std::vector<fleet::SloMonitor::Report>& window_reports() const {
    return window_reports_;
  }

 private:
  ScenarioSpec spec_;
  std::unique_ptr<fleet::Cluster> cluster_;
  std::unique_ptr<TrafficSource> source_;
  std::unique_ptr<ChaosEngine> chaos_;
  std::unique_ptr<fleet::Autopilot> autopilot_;
  std::unique_ptr<fleet::SloMonitor> monitor_;
  std::vector<fleet::SloMonitor::Report> window_reports_;
  bool ran_ = false;
};

}  // namespace taichi::scenario

#endif  // SRC_SCENARIO_SCENARIO_H_
