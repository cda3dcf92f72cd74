// Fleet SLO monitoring: aggregates one summary metric (default: the VM
// startup latency that is the paper's headline CP SLO) across every node
// into fleet percentiles, and flags breaches and hotspot nodes. It only
// measures; acting on a report is the caller's job (Rollout, Autopilot).
// Percentiles carry sim::Summary's bucket error (within 2^-8 of the exact
// order statistic).
//
// Observation is windowed: each Observe() evaluates only the samples that
// arrived since the previous Observe(), which is what a rollout gate needs
// (old pre-wave samples must not dilute a fresh regression). A node's window
// is the bucket-wise difference between its summary now and at its last
// Observe(); a crash, restart or re-registration since then starts the
// window over from the node's whole summary.
#ifndef SRC_FLEET_SLO_MONITOR_H_
#define SRC_FLEET_SLO_MONITOR_H_

#include <string>
#include <vector>

#include "src/fleet/cluster.h"

namespace taichi::fleet {

struct SloConfig {
  // Name of a summary registered in each node's MetricsRegistry.
  std::string metric = "cp.vm_startup.latency_ms";
  double percentile = 99.0;
  // SLO ceiling in the metric's unit. Default: the 160 ms VM-startup SLO.
  double threshold = 160.0;
  // A node is a hotspot when its windowed percentile exceeds the fleet
  // value by this factor (with at least min_samples in the window).
  double hotspot_factor = 1.5;
  size_t min_samples = 5;
  // Flows named per hotspot node (and fleet-wide) in the report, read from
  // the DP-tap flow sketches — never an exact per-flow map. 0 disables.
  size_t heavy_hitters = 4;
};

class SloMonitor {
 public:
  // A heavy flow behind a hotspot: sketch-estimated bytes at the DP tap and
  // the flow's share of that scope's total DP bytes.
  struct HeavyFlow {
    obs::FlowKey key;
    uint64_t bytes = 0;
    uint64_t packets = 0;
    double share = 0.0;
  };

  struct NodeStat {
    size_t samples = 0;   // Window sample count.
    double value = 0.0;   // Windowed percentile (0 when samples == 0).
    bool breach = false;
    bool hotspot = false;
    // Hotspot nodes only: the top flows on this node's DP tap — who is
    // actually burning the DP cycles behind the breach.
    std::vector<HeavyFlow> heavy;
  };

  struct Report {
    sim::SimTime at = 0;
    size_t total_samples = 0;  // Across the evaluated node set.
    double fleet_value = 0.0;  // Percentile over the merged window.
    bool fleet_breach = false;
    std::vector<NodeStat> nodes;  // One entry per cluster node, always.
    std::vector<int> hotspots;    // Node ids, ascending.
    // When any hotspot fired: top flows over the *merged* fleet DP sketch
    // (Cluster::MergedFlowMonitor), for cross-node offenders.
    std::vector<HeavyFlow> fleet_heavy;
  };

  SloMonitor(Cluster* cluster, SloConfig config);

  // Evaluates the window since the previous Observe() (first call: since the
  // start of the run) and advances the window — but only for the evaluated
  // nodes: a node outside `subset` keeps its baseline so no sample is ever
  // skipped by an Observe() that wasn't looking at it. The fleet aggregate
  // covers `subset` node ids when given, all nodes otherwise; per-node stats
  // are always computed for every node (over its current, unconsumed window).
  Report Observe(const std::vector<int>& subset = {});

 private:
  // A node's summary as of the last Observe() that evaluated it, and the
  // node incarnation it belonged to. The next window is the difference.
  struct Baseline {
    sim::Summary summary;
    uint32_t incarnation = 0;
  };

  void AttributeHeavyFlows(Report* report) const;

  Cluster* cluster_;
  SloConfig config_;
  std::vector<Baseline> baseline_;  // Per node.
};

}  // namespace taichi::fleet

#endif  // SRC_FLEET_SLO_MONITOR_H_
