// The pluggable traffic-source interface of the scenario engine.
//
// A TrafficSource owns everything that injects offered load into a
// fleet::Cluster — DP packet streams, CP workflow arrivals, or both — behind
// a uniform start/stop surface, so the scenario runner, the benches and the
// fleet autopilot can swap "the canonical Fig. 3 mix", "that mix under a
// diurnal curve" or "a DDoS flood" without knowing how the packets are made.
//
// Lifecycle notifications: the chaos layer calls OnNodeCrash *before* it
// destroys a node's Testbed (the node's simulation is still valid, so a
// source may cancel events it scheduled there — afterwards every handle into
// that node is dead), and OnNodeRestart *after* the replacement Testbed is
// built and caught up to the fleet clock (the source re-provisions its load
// on the fresh node). Sources that never touch per-node state may ignore
// both. All calls happen at epoch boundaries on the fleet driver thread,
// like every other cross-node action — that is what keeps chaos runs
// byte-identical across `--threads` values.
#ifndef SRC_SCENARIO_TRAFFIC_SOURCE_H_
#define SRC_SCENARIO_TRAFFIC_SOURCE_H_

#include <cstddef>

namespace taichi::fleet {
class Cluster;
}  // namespace taichi::fleet

namespace taichi::scenario {

// Implemented by anything that must track node lifecycle (traffic sources,
// the autopilot, the staged rollout). Kept separate so non-source observers
// can subscribe to the chaos engine too.
class NodeLifecycleListener {
 public:
  virtual ~NodeLifecycleListener() = default;

  // Node `node` is about to lose power; its Testbed (and simulation) is
  // still alive, but only for the duration of this call.
  virtual void OnNodeCrash(fleet::Cluster& cluster, size_t node) = 0;
  // Node `node` rebooted: a fresh Testbed sits at the fleet clock.
  virtual void OnNodeRestart(fleet::Cluster& cluster, size_t node) = 0;
};

class TrafficSource : public NodeLifecycleListener {
 public:
  // Stable identifier for reports and logs.
  virtual const char* name() const = 0;

  // Arms the source against the cluster (schedules its first events inside
  // the per-node simulations). Called once per run, at the current epoch
  // boundary; calling Start twice is a misuse.
  virtual void Start(fleet::Cluster& cluster) = 0;
  // Cuts off future injections; in-flight work drains as the cluster runs.
  virtual void Stop(fleet::Cluster& cluster) = 0;
  virtual bool running() const = 0;

  // Default: node lifecycle is irrelevant to this source.
  void OnNodeCrash(fleet::Cluster&, size_t) override {}
  void OnNodeRestart(fleet::Cluster&, size_t) override {}

  // --- Live migration (the fleet autopilot drives these) ---
  // Current VM-arrival share of `node`, in source share units (1.0 = the
  // configured base per-node rate).
  virtual double VmShare(size_t node) const = 0;
  // Moves `units` of VM-arrival share from node `from` to node `to`,
  // effective at the next scheduled arrival. Returns false, moving nothing,
  // when `from` holds less than `units` of share or the move is not between
  // two distinct known nodes.
  virtual bool MigrateVmShare(size_t from, size_t to, double units) = 0;
};

}  // namespace taichi::scenario

#endif  // SRC_SCENARIO_TRAFFIC_SOURCE_H_
