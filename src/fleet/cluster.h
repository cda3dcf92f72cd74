// The fleet layer's root object: N independent SmartNIC nodes advanced in
// lockstep inside one deterministic simulation run.
//
// Each node is a full exp::Testbed (its own Simulation, Machine, Kernel,
// services and CP fleet) with its own obs::Observability. The cluster
// advances every node's clock through fixed-size epochs, so cross-node
// control actions (placement, rollout waves, SLO checks) happen only at
// epoch boundaries and the whole run stays reproducible: same seed, same
// node count, same byte-identical outputs.
//
// Within an epoch the nodes are embarrassingly parallel — everything a
// node's events touch (clock, Rng, kernel, metrics, tracer) hangs off its
// own Testbed — so `threads > 1` steps them on a thread pool and barriers
// before firing epoch hooks. The determinism contract is hard: parallel
// runs are byte-identical to serial runs (metrics JSON, merged Chrome
// trace, rollout wave log), because thread count changes only which wall
// clock stepped a node, never what the node computed. Hooks always run on
// the caller's thread, after the barrier, in registration order.
#ifndef SRC_FLEET_CLUSTER_H_
#define SRC_FLEET_CLUSTER_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/exp/testbed.h"
#include "src/obs/observability.h"
#include "src/sim/thread_pool.h"

namespace taichi::fleet {

struct ClusterConfig {
  int num_nodes = 12;
  uint64_t seed = 1;
  // Template for every node; `tweak` (node index, config) customizes
  // per-node settings before the per-node seed is applied.
  exp::TestbedConfig node;
  std::function<void(int, exp::TestbedConfig&)> tweak;
  // Lockstep granularity: cross-node actions are quantized to this.
  sim::Duration epoch = sim::Millis(5);
  // Worker threads stepping nodes within an epoch (1 = serial). Output is
  // byte-identical at any value; pick min(num_nodes, hardware cores).
  int threads = 1;
  // Tracing is opt-in per the usual rule (one predictable branch when off).
  bool enable_trace = false;
  size_t trace_capacity = obs::TraceRecorder::kDefaultCapacity;
};

class Cluster {
 public:
  using EpochHook = std::function<void(sim::SimTime)>;

  explicit Cluster(ClusterConfig config);
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  size_t size() const { return nodes_.size(); }
  exp::Testbed& node(size_t i) { return *nodes_[i]->bed; }
  const exp::Testbed& node(size_t i) const { return *nodes_[i]->bed; }
  // False between CrashNode(i) and RestartNode(i); node(i) is then invalid.
  bool alive(size_t i) const { return nodes_[i]->bed != nullptr; }
  size_t alive_count() const;
  // Boot count: 1 after construction, +1 per RestartNode. Sources use it to
  // recognize stale per-node handles (an event id from a previous life).
  uint32_t incarnation(size_t i) const { return nodes_[i]->incarnation; }
  obs::Observability& observability(size_t i) { return nodes_[i]->obs; }
  const obs::Observability& observability(size_t i) const { return nodes_[i]->obs; }
  const std::string& node_name(size_t i) const { return nodes_[i]->name; }
  const ClusterConfig& config() const { return config_; }

  // The fleet clock: the epoch boundary every node has reached. Individual
  // node clocks are exactly here between Run* calls.
  sim::SimTime Now() const { return now_; }

  // Advances all nodes in lockstep epochs until the fleet clock reaches
  // `deadline` (rounded up to a whole epoch). Epoch hooks fire at each
  // boundary after every node has arrived, in registration order.
  void RunUntil(sim::SimTime deadline);
  void RunFor(sim::Duration delta) { RunUntil(now_ + delta); }

  // Hooks run at every epoch boundary; returns an id for RemoveEpochHook.
  uint64_t AddEpochHook(EpochHook hook);
  void RemoveEpochHook(uint64_t id);

  // --- Node lifecycle (chaos layer) ---
  //
  // CrashNode destroys node i's Testbed outright — every queued event, task,
  // in-flight packet and vCPU dies with it, exactly like power loss. The
  // host-side Observability survives as the flight recorder (trace events up
  // to the crash, SLO samples), but the metrics registry is cleared: its
  // pointers aim into the freed Testbed. The node's in-Testbed flow sketches
  // are lost with it, as a real node's DRAM would be.
  //
  // RestartNode boots a fresh Testbed in the slot with a seed derived from
  // the node's original seed and its incarnation count (a reboot is a new
  // random universe, but a deterministic one), then advances the fresh sim
  // to the fleet clock BEFORE re-attaching observability — boot settles
  // off-camera and the merged trace never sees events behind `Now()`. The
  // caller re-provisions workload (background load, CP fleet, sources) after
  // this returns; the scenario chaos engine does exactly that.
  //
  // Both are only legal between Run* calls (epoch boundaries), like every
  // other cross-node action.
  void CrashNode(size_t i);
  exp::Testbed* RestartNode(size_t i);

  // --- Fleet aggregation ---

  // Merges the summary registered under `metric` on every node into one
  // fleet summary by adding buckets: the summary that would have observed
  // the union of the samples, with percentiles within 2^-8 of the exact
  // ones. Nodes without the metric contribute nothing.
  sim::Summary MergeSummaryMetric(const std::string& metric) const;

  // Rolls every node's flow monitor for one tap (rx/dp/tx) into a single
  // fleet-scope monitor: count-min cells add, HLL registers max, heavy-hitter
  // tables union — so fleet distinct-flow counts and top-K come from the
  // sketches alone, never an exact per-flow map. Nodes share sketch configs
  // by construction; a tweak that broke that is refused per-sketch with a
  // TAICHI_ERROR.
  enum class FlowTap : uint8_t { kRx, kDp, kTx };
  obs::FlowMonitor MergedFlowMonitor(FlowTap tap) const;

  // One Chrome trace with a process track group per node (pid = node index,
  // named after the node). All nodes share the simulated clock, so events
  // line up across processes in the viewer.
  std::string MergedTraceJson() const;
  bool WriteMergedTrace(const std::string& path) const;

 private:
  // Steps node i to the epoch boundary `next`. Runs on whichever worker
  // owns the node's shard this epoch.
  void StepNode(size_t i, sim::SimTime next);

  struct Node {
    std::string name;
    obs::Observability obs;
    std::unique_ptr<exp::Testbed> bed;
    uint64_t seed = 0;         // First-boot seed from the cluster stream.
    uint32_t incarnation = 1;  // Boot count; bumped by RestartNode.

    explicit Node(size_t trace_capacity) : obs(trace_capacity) {}
  };

  ClusterConfig config_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::unique_ptr<sim::ThreadPool> pool_;  // Only when config_.threads > 1.
  sim::SimTime now_ = 0;
  std::map<uint64_t, EpochHook> hooks_;  // Ordered: deterministic firing.
  uint64_t next_hook_id_ = 1;
};

}  // namespace taichi::fleet

#endif  // SRC_FLEET_CLUSTER_H_
