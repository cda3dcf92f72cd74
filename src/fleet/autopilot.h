// Closed-loop fleet autopilot: the controller that finally *acts* on what
// SloMonitor reports.
//
// An epoch-hook state machine that observes the fleet SLO in fixed windows
// and drives four remediation mechanisms, in escalation order per breaching
// node:
//
//   1. Enable Tai Chi — a breaching baseline node gets the framework turned
//      on (donated DP idle absorbs the CP backlog). Nodes that never breach
//      stay baseline, so the fleet runs Tai Chi only where the load demands
//      it — the "fewer CPUs than static placement" end state.
//   2. Live migration — a breaching node that already runs Tai Chi sheds one
//      unit of VM-arrival share through TrafficSource::MigrateVmShare to the
//      node with the least share that is alive, neither a hotspot nor
//      breaching, and has room for the unit under a per-node share cap. The
//      source's share is the only record of who carries what.
//   3. §8 inverse repartitioning — per-node DP-utilization hysteresis
//      triggers Testbed::SetDpBoost when the data plane spikes (donations
//      pause, DP runs undisturbed) and reverts when it subsides.
//   4. Graceful degradation — when the fleet breaches and no move fits
//      anywhere (fleet-wide overload / DDoS), shed background DP load via
//      ScaleBackgroundLoad in bounded steps down to a floor, restoring one
//      step at a time once the fleet has been healthy for `recover_windows`.
//
// Stability machinery: a breach must persist `hysteresis_windows` before the
// controller touches the node; every action opens a global settle period and
// a per-node cooldown; an action that does not improve the node's windowed
// percentile doubles that node's cooldown exponentially (capped) so the
// controller backs off instead of flapping. A chaos-killed node's controller
// state is reset (evict) and, on restart, Tai Chi is re-enabled if it ran
// (readmit) via the shared NodeLifecycleListener path; its VM share stays
// with it throughout.
//
// Determinism contract: every decision is a pure function of the SLO
// reports, the source's VM shares and the fixed config — stable orderings,
// no wall clock, all mutation at epoch boundaries on the fleet driver
// thread. The decision log (and therefore the verdict JSON embedding it) is
// byte-identical across `--threads` values; every action count is read from
// it.
#ifndef SRC_FLEET_AUTOPILOT_H_
#define SRC_FLEET_AUTOPILOT_H_

#include <cstdint>
#include <vector>

#include "src/fleet/cluster.h"
#include "src/fleet/slo_monitor.h"
#include "src/scenario/traffic_source.h"

namespace taichi::fleet {

struct AutopilotConfig {
  // The SLO being defended; the autopilot runs its own SloMonitor (window
  // cursors are per-monitor, so it coexists with a scenario runner's).
  SloConfig slo;
  sim::Duration observe_every = sim::Millis(100);

  // --- Stability ---
  int hysteresis_windows = 2;   // Breach persistence before acting on a node.
  int settle_windows = 1;       // Global quiet windows after any action.
  int cooldown_windows = 2;     // Per-node base cooldown between actions.
  int max_backoff_exp = 4;      // Cooldown scales by 2^fail_streak up to this.
  // An action "improved" its node when the next judged window is not
  // breaching, or its percentile dropped by at least this fraction.
  double min_improvement = 0.05;
  int max_actions_per_window = 2;

  // --- §8 inverse repartitioning (DP boost) ---
  // Windowed DP utilization (busy fraction per active DP CPU) thresholds;
  // on/off gap is the hysteresis band.
  double dp_boost_on = 0.45;
  double dp_boost_off = 0.25;

  // --- Graceful degradation ---
  double shed_step = 0.25;   // Background-load fraction removed per shed.
  double shed_floor = 0.25;  // Never scale background below this factor.
  int recover_windows = 2;   // Healthy persistence before restoring a step.
};

class Autopilot : public scenario::NodeLifecycleListener {
 public:
  // What the controller did and why — the verdict JSON embeds this log.
  enum class Act : uint8_t {
    kEnable,    // EnableTaiChi on a breaching baseline node.
    kMigrate,   // One unit of VM share moved node -> target.
    kDpBoost,   // SetDpBoost(true): DP spike, donations paused.
    kDpRevert,  // SetDpBoost(false): spike subsided.
    kShed,      // Background load shed one step fleet-wide.
    kRestore,   // One shed step restored.
    kEvict,     // Crash: node's controller state reset; value = its units.
    kReadmit,   // Restart: node back (Tai Chi re-enabled if it ran).
    kBackoff,   // A judged action did not improve; cooldown doubled.
  };

  struct Decision {
    sim::SimTime at = 0;
    Act act = Act::kEnable;
    int node = -1;    // -1 for fleet-scope actions (shed/restore).
    int target = -1;  // Migration target; -1 otherwise.
    double value = 0.0;  // Context: node percentile, DP util or shed factor.

    bool operator==(const Decision&) const = default;
  };

  // `source` holds each node's VM share and moves it (VmShare /
  // MigrateVmShare); it must outlive the autopilot.
  Autopilot(Cluster* cluster, scenario::TrafficSource& source, AutopilotConfig config);
  ~Autopilot();
  Autopilot(const Autopilot&) = delete;
  Autopilot& operator=(const Autopilot&) = delete;

  // Resets the controller state and registers the epoch hook. Call after the
  // source has Start()ed; Arm/Disarm pair once per run. To observe chaos,
  // also register the autopilot with ChaosEngine::AddListener — after the
  // traffic source, so restarts re-provision load before Tai Chi is
  // re-enabled.
  void Arm();
  void Disarm();

  // --- scenario::NodeLifecycleListener ---
  void OnNodeCrash(Cluster& cluster, size_t node) override;
  void OnNodeRestart(Cluster& cluster, size_t node) override;

  // --- Inspection / reporting ---
  const std::vector<Decision>& decisions() const { return decisions_; }
  // How many times the log records `act`.
  uint64_t Count(Act act) const;

  size_t windows() const { return window_; }
  double shed_factor() const { return shed_factor_; }
  // Nodes currently running Tai Chi / their total vCPU count.
  int enabled_nodes() const;
  int enabled_vcpus() const;

 private:
  // Pending outcome judgment for the last action on a node.
  struct Judge {
    bool active = false;
    size_t at_window = 0;  // Window index when the verdict is read.
    double value_then = 0.0;
  };

  void OnEpoch(sim::SimTime now);
  void OnWindow(sim::SimTime now);
  void JudgePending(const SloMonitor::Report& report, sim::SimTime now);
  void UpdateDpBoost(const std::vector<double>& util, sim::SimTime now);
  int Remediate(const SloMonitor::Report& report, sim::SimTime now);
  int MigrationTarget(const SloMonitor::Report& report, size_t from) const;
  void Recover(sim::SimTime now);
  void ApplyShed();
  void NoteAction(size_t node, const SloMonitor::Report& report);
  void Log(sim::SimTime at, Act act, int node, int target, double value);
  double DpUtilization(size_t node, sim::Duration elapsed);

  Cluster* cluster_;
  scenario::TrafficSource& source_;
  AutopilotConfig config_;
  SloMonitor monitor_;

  uint64_t hook_id_ = 0;
  sim::SimTime next_observe_ = 0;
  sim::SimTime last_window_at_ = 0;
  size_t window_ = 0;            // Windows observed so far.
  size_t settle_until_ = 0;      // Window index remedies resume at.
  double shed_factor_ = 1.0;
  int healthy_streak_ = 0;

  // Per-node controller state.
  std::vector<int> breach_streak_;
  std::vector<int> fail_streak_;        // Consecutive non-improving actions.
  std::vector<size_t> cooldown_until_;  // Window index per node.
  std::vector<int> boost_hi_streak_;
  std::vector<int> boost_lo_streak_;
  std::vector<bool> was_enabled_;       // Tai Chi state at crash time.
  std::vector<sim::Duration> prev_dp_work_;
  std::vector<Judge> judge_;

  std::vector<Decision> decisions_;
};

const char* ToString(Autopilot::Act act);

}  // namespace taichi::fleet

#endif  // SRC_FLEET_AUTOPILOT_H_
