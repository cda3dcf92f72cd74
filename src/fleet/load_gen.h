// Fleet workload generator: drives every cluster node with the production
// load shape the paper measures.
//
// Data plane: each (node, CPU) gets an average utilization drawn from the
// Fig. 3 fleet mix (lognormal, median ~9%, thin tail into the low 30s) and
// bursty MMPP traffic at that level. Control plane: the standard background
// monitor fleet plus a Poisson stream of VM-startup workflows (Fig. 17's
// density regime), scheduled inside each node's own simulation so the whole
// fleet stays deterministic.
//
// LoadGen is the canonical scenario::TrafficSource: the scenario engine
// (and anything else that swaps traffic shapes) drives it through that
// interface, and the chaos layer's node-lifecycle notifications let it
// survive crash/restart churn — a rebooted node gets fresh utilization
// draws and a fresh arrival stream from the same per-node RNG.
#ifndef SRC_FLEET_LOAD_GEN_H_
#define SRC_FLEET_LOAD_GEN_H_

#include <vector>

#include "src/fleet/cluster.h"
#include "src/scenario/traffic_source.h"
#include "src/sim/random.h"

namespace taichi::fleet {

struct LoadGenConfig {
  // Fig. 3 fleet heterogeneity: LogNormal(median, sigma), clamped.
  double util_median = 0.095;
  double util_sigma = 0.50;
  double util_min = 0.005;
  double util_max = 0.85;
  uint32_t pkt_bytes = 512;
  // Flow population per source for the sketch telemetry (Zipf-like skew).
  // Telemetry-only: flow synthesis consumes no Rng state and no sim time.
  uint32_t flow_count = 256;
  double flow_skew = 1.3;

  // Poisson VM-startup arrivals per node (50/s at 1x density, §6.6).
  bool vm_arrivals = true;
  double vm_arrival_rate_per_sec = 50.0;
  // Per-node VM-arrival share: node i's effective rate is
  // vm_arrival_rate_per_sec * node_vm_scale[i] (missing entries = 1.0).
  // This is the heterogeneous-fleet knob and the unit the autopilot's live
  // migration moves between nodes (see MigrateVmShare).
  std::vector<double> node_vm_scale;

  // Spawn the standard background CP monitor fleet on each node.
  bool spawn_monitors = true;

  uint64_t seed = 2024;

  // --- Flow-aggregate user modeling (hyperscale fleets) ---
  //
  // Off (the default), each DP CPU draws its own Fig. 3 utilization and the
  // flow population repeats across nodes — fine at 12 nodes, wrong at 10k:
  // per-connection realism isn't affordable and fleet distinct-flow counts
  // must scale with the fleet. On, the users behind a node collapse into
  // per-node arrival-mix state: one aggregate packet rate
  // (users_per_node × pps_per_user, modulated by a per-node LogNormal(1.0,
  // util_sigma) factor for Fig. 3 heterogeneity) spread across the node's
  // DP CPUs, and a per-node flow population (users_per_node × flows_per_user
  // Zipf-keyed flows, salted per node so fleet-merged sketches see the true
  // aggregate). O(1) state per node regardless of user count; flow synthesis
  // stays counter-hashed (telemetry-only, no Rng, no timing).
  struct AggregateUsers {
    bool enabled = false;
    double users_per_node = 1000.0;
    double pps_per_user = 40.0;    // Mean offered packets/s per user.
    double flows_per_user = 1.0;   // Distinct 5-tuples per user.
    // Clamp on the per-node LogNormal modulation factor.
    double mod_min = 0.25;
    double mod_max = 4.0;
  };
  AggregateUsers aggregate;
};

class LoadGen : public scenario::TrafficSource {
 public:
  LoadGen(Cluster* cluster, LoadGenConfig config);

  // Starts DP load + CP arrivals on every node. Calling Start on a running
  // generator is a hard misuse — the second call would stack a second MMPP
  // source set on every DP CPU and silently double the offered load, so it
  // logs a TAICHI_ERROR and fails an assert (in every build type).
  void Start();
  // Stops the DP sources and cuts off future VM arrivals; in-flight VM
  // workflows still complete as the cluster advances.
  void Stop();

  bool running() const override { return running_; }

  // Aggregate-mode per-node mix (empty when aggregate.enabled is false).
  struct NodeMix {
    double pps = 0;        // Aggregate offered packets/s across the node.
    uint32_t flows = 0;    // Distinct flows in the node's population.
    double util = 0;       // Resulting per-CPU average utilization.
  };
  const std::vector<NodeMix>& node_mixes() const { return node_mixes_; }

  // Scales future VM-startup arrivals (diurnal curves); effective from the
  // next arrival. Values <= 0 park arrivals on nodes whose next arrival
  // fires after the change; raising the rate re-arms parked nodes.
  void set_vm_rate(double per_sec);

  // --- scenario::TrafficSource ---
  const char* name() const override { return "fig3-mix"; }
  void Start(Cluster& cluster) override;
  void Stop(Cluster& cluster) override;
  // The arrival event died with the crashed node's simulation; drop the
  // stale handle so a later Stop() cannot cancel into the replacement sim.
  void OnNodeCrash(Cluster& cluster, size_t node) override;
  // Re-provisions the freshly booted node: new utilization draws, new MMPP
  // sources, monitors and a new arrival stream — all from the node's own
  // RNG, further along the same deterministic sequence.
  void OnNodeRestart(Cluster& cluster, size_t node) override;
  // Per-node VM share (live migration): VmShare reads the current scale,
  // MigrateVmShare moves `units` of it between nodes, re-arming a parked
  // arrival stream on a node whose share rises from zero.
  double VmShare(size_t node) const override;
  bool MigrateVmShare(size_t from, size_t to, double units) override;

 private:
  void StartNode(size_t node);
  void ScheduleArrival(size_t node);
  // Effective arrival rate for `node` (base rate x per-node share).
  double NodeVmRate(size_t node) const {
    return config_.vm_arrival_rate_per_sec * vm_scale_[node];
  }
  // Restarts a parked arrival stream if the node's effective rate is
  // positive again (after set_vm_rate or MigrateVmShare raised it).
  void ReArmArrivals(size_t node);

  Cluster* cluster_;
  LoadGenConfig config_;
  std::vector<sim::Rng> arrival_rngs_;  // One independent stream per node.
  // One repeating arrival event per node, re-keyed with a fresh exponential
  // gap after each arrival (no per-arrival closure rebuild).
  std::vector<sim::EventId> arrival_events_;
  std::vector<NodeMix> node_mixes_;  // Aggregate mode only.
  std::vector<double> vm_scale_;  // Current per-node share (migration moves it).
  bool running_ = false;
};

}  // namespace taichi::fleet

#endif  // SRC_FLEET_LOAD_GEN_H_
