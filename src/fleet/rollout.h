// Staged Tai Chi rollout across a cluster, mirroring the §6.6 deployment
// story: enable the framework on a canary slice first, soak it against the
// VM-startup SLO, then widen wave by wave until the whole fleet runs Tai
// Chi — or roll everything back the moment the SLO regresses.
//
// The rollout drives Testbed::EnableTaiChi/DisableTaiChi at epoch
// boundaries through a cluster epoch hook, and gates each wave on a
// windowed SloMonitor check over the currently-enabled nodes.
#ifndef SRC_FLEET_ROLLOUT_H_
#define SRC_FLEET_ROLLOUT_H_

#include <string>
#include <vector>

#include "src/fleet/cluster.h"
#include "src/fleet/slo_monitor.h"
#include "src/scenario/traffic_source.h"

namespace taichi::fleet {

struct RolloutConfig {
  // Cumulative node counts per wave; empty selects the canonical
  // canary -> quarter -> full ladder for the cluster size.
  std::vector<int> waves;
  // Settle time after enabling a wave before the gate window opens: the
  // nodes drain whatever workflow backlog they accumulated pre-enable, so
  // the gate judges the new regime rather than old queueing debt.
  sim::Duration settle = sim::Millis(100);
  // Minimum measurement window per wave before its SLO gate may pass or
  // fail. A gate with fewer than slo.min_samples keeps soaking.
  sim::Duration soak = sim::Millis(200);
  SloConfig slo;
};

// A NodeLifecycleListener so chaos-driven death and rebirth flow through the
// same path every other lifecycle observer uses (ChaosEngine::AddListener):
// a node inside the enabled set that reboots comes back as baseline hardware,
// and the rollout re-enables Tai Chi on it at the restart boundary.
class Rollout : public scenario::NodeLifecycleListener {
 public:
  enum class State : uint8_t { kIdle, kSoaking, kDone, kRolledBack };

  struct Event {
    sim::SimTime at = 0;
    std::string what;
  };

  Rollout(Cluster* cluster, RolloutConfig config);
  ~Rollout();
  Rollout(const Rollout&) = delete;
  Rollout& operator=(const Rollout&) = delete;

  // Enables the first wave immediately and begins gating at epoch
  // boundaries. One rollout per object: calling Start twice is a misuse.
  void Start();

  // --- scenario::NodeLifecycleListener (register via ChaosEngine) ---
  // A crash inside the enabled set is only noted; the node's Tai Chi died
  // with its Testbed.
  void OnNodeCrash(Cluster& cluster, size_t node) override;
  // A restarted node that belongs to the enabled set rejoins its wave:
  // the fresh baseline Testbed gets Tai Chi re-enabled immediately.
  void OnNodeRestart(Cluster& cluster, size_t node) override;

  State state() const { return state_; }
  const std::vector<Event>& history() const { return history_; }
  // The SLO gate decisions, one per wave soak that reached a verdict.
  const std::vector<SloMonitor::Report>& gate_reports() const { return gate_reports_; }

 private:
  void OnEpoch(sim::SimTime now);
  void BeginWave(size_t wave, sim::SimTime now);
  void Rollback(sim::SimTime now);
  void Note(sim::SimTime at, std::string what);
  std::vector<int> EnabledIds() const;

  Cluster* cluster_;
  RolloutConfig config_;
  SloMonitor monitor_;
  State state_ = State::kIdle;
  size_t wave_ = 0;
  size_t enabled_ = 0;  // Nodes [0, enabled_) run Tai Chi.
  sim::SimTime settle_until_ = 0;
  bool measuring_ = false;  // Window reset done; gate pending.
  sim::SimTime gate_at_ = 0;
  uint64_t hook_id_ = 0;
  std::vector<Event> history_;
  std::vector<SloMonitor::Report> gate_reports_;
};

}  // namespace taichi::fleet

#endif  // SRC_FLEET_ROLLOUT_H_
