// Chaos layer: scripted and seeded-random fault injection driven from the
// cluster's epoch hooks.
//
// Every action fires at an epoch boundary — after the barrier, on the fleet
// driver thread — which is precisely what makes chaos runs reproducible:
// the injection schedule is a function of (script, seed, epoch count) only,
// never of wall-clock or thread interleaving, so a chaos run is
// byte-identical across same-seed reruns AND across `--threads` values.
//
// Faults:
//   kCrash         power-loss a node (Cluster::CrashNode) — listeners are
//                  notified first, while the dying simulation still exists.
//   kRestart       reboot a crashed node (Cluster::RestartNode) — listeners
//                  are notified after the fresh Testbed is at the fleet
//                  clock, and re-provision their workload.
//   kAccelStall    freeze the accelerator pipeline (firmware hiccup).
//   kCpFlood       noisy neighbor: a pack of aggressive CP tasks.
//   kHotplugStorm  back-to-back stop_machine-style kernel sections.
//
// The random layer draws one Bernoulli per enabled fault kind per node per
// epoch from its own Rng — dead nodes consume draws too, so the stream
// never depends on fleet health history. Random crashes auto-restart after
// `down_time`, and never take the fleet below `min_alive` nodes.
#ifndef SRC_SCENARIO_CHAOS_H_
#define SRC_SCENARIO_CHAOS_H_

#include <cstdint>
#include <vector>

#include "src/scenario/traffic_source.h"
#include "src/sim/random.h"
#include "src/sim/time.h"

namespace taichi::exp {
class Testbed;
}  // namespace taichi::exp

namespace taichi::scenario {

struct ChaosAction {
  enum class Kind : uint8_t { kCrash, kRestart, kAccelStall, kCpFlood, kHotplugStorm };

  sim::SimTime at = 0;  // Fires at the first epoch boundary >= at.
  int node = 0;
  Kind kind = Kind::kCrash;
  sim::Duration duration = 0;  // Stall length / storm routine length.
  int count = 0;               // Flood task count / storm op count.
  uint64_t iterations = 0;     // Flood iterations per task (0 = forever).
};

const char* ToString(ChaosAction::Kind kind);

struct ChaosConfig {
  // Scripted faults (any order; the engine sorts by time, ties by position).
  std::vector<ChaosAction> script;

  // Seeded-random layer: per-node per-epoch probabilities (0 disables).
  double crash_prob = 0;
  sim::Duration down_time = sim::Millis(30);  // Random crashes auto-restart.
  double stall_prob = 0;
  sim::Duration stall_duration = sim::Micros(800);
  double flood_prob = 0;
  int flood_tasks = 3;
  uint64_t flood_iterations = 40;
  double storm_prob = 0;
  int storm_ops = 12;
  sim::Duration storm_routine = sim::Millis(2);

  uint64_t seed = 0x5eed;
  size_t min_alive = 1;  // Random crashes never go below this.
};

class ChaosEngine {
 public:
  struct Fired {
    sim::SimTime at = 0;
    ChaosAction::Kind kind = ChaosAction::Kind::kCrash;
    int node = 0;
  };

  ChaosEngine(fleet::Cluster* cluster, ChaosConfig config);
  ~ChaosEngine();
  ChaosEngine(const ChaosEngine&) = delete;
  ChaosEngine& operator=(const ChaosEngine&) = delete;

  // Lifecycle observers (traffic sources, trace recorder, rollout,
  // autopilot — every party that must see death and rebirth goes through
  // this one path). Crash order: listeners (in registration order), then the
  // crash; restart order: the reboot, then listeners in registration order —
  // so register load re-provisioners (the traffic source) before controllers
  // that re-enable Tai Chi (Rollout/Autopilot).
  void AddListener(NodeLifecycleListener* listener);

  // Registers the epoch hook. Arm/Disarm pair once per run.
  void Arm();
  void Disarm();
  // Stops injecting new faults but keeps the hook armed so already-queued
  // restarts still fire — the end-of-run drain path.
  void Quiesce() { quiesced_ = true; }

  const std::vector<Fired>& fired() const { return fired_; }
  // How many faults of `kind` have fired.
  int Count(ChaosAction::Kind kind) const;
  // Crashed nodes whose restart has not fired yet.
  size_t pending_restarts() const { return pending_.size(); }

 private:
  void OnEpoch(sim::SimTime now);
  void Apply(const ChaosAction& action, sim::SimTime now);
  void Crash(size_t node, sim::SimTime now);
  void Restart(size_t node, sim::SimTime now);

  fleet::Cluster* cluster_;
  ChaosConfig config_;
  sim::Rng rng_;
  uint64_t hook_id_ = 0;
  size_t script_next_ = 0;               // Cursor into the sorted script.
  std::vector<ChaosAction> pending_;     // Auto-restarts, sorted by time.
  std::vector<Fired> fired_;
  bool quiesced_ = false;
  std::vector<NodeLifecycleListener*> listeners_;
};

}  // namespace taichi::scenario

#endif  // SRC_SCENARIO_CHAOS_H_
