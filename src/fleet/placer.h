// Workload capacity ledger: admits tenant workloads (VM bundles with DP
// traffic and CP management demand) onto a caller-chosen node against
// per-node capacity.
//
// The placer is pure accounting — it records what each node carries and
// whether more fits; choosing the node (fleet::Autopilot via
// SloMonitor::CoolestTarget) and driving the node's actual load (traffic
// sources, VM startup storms) are the callers' jobs. Keeping it
// side-effect-free makes every admission unit-testable and replayable.
#ifndef SRC_FLEET_PLACER_H_
#define SRC_FLEET_PLACER_H_

#include <cstdint>
#include <string>
#include <vector>

namespace taichi::fleet {

// One tenant workload unit: a bundle of VMs plus the data-plane utilization
// and control-plane management load they bring to the node hosting them.
struct WorkloadSpec {
  std::string tenant;
  int vms = 1;
  double dp_util = 0.0;  // Sum of DP CPU-fractions (1.0 = one full DP CPU).
  double cp_load = 0.0;  // CP management work units (monitor-equivalents).
};

// Per-node admission limits. The DP ceiling defaults to the donatable
// headroom of 8 DP CPUs at the Fig. 3 p99 provisioning point (~32.5% per
// CPU): beyond it a node can no longer absorb its tenants' bursts.
struct NodeCapacity {
  int vm_slots = 32;
  double dp_util = 8 * 0.325;
  double cp_load = 48.0;
};

struct Placement {
  bool admitted = false;
  int node = -1;
  std::string reason;  // Why admission failed (empty when admitted).
};

class Placer {
 public:
  Placer(size_t num_nodes, NodeCapacity capacity);

  // Commits `spec` onto `node` (e.g. a migration landing on the target the
  // caller chose). Refuses when it does not fit — never overcommits.
  Placement PlaceOn(int node, const WorkloadSpec& spec);
  // Reverses a prior placement (tenant teardown, rebalancing). Releasing a
  // spec that was never admitted on `node` (double-release, wrong node) is a
  // caller bug: it corrupts capacity accounting, so it errors and asserts.
  void Release(int node, const WorkloadSpec& spec);

  // Would `spec` fit on `node` right now? False for out-of-range nodes.
  bool Fits(size_t node, const WorkloadSpec& spec) const;

  size_t size() const { return loads_.size(); }

  int vms(size_t node) const { return loads_[node].vms; }
  double dp_util(size_t node) const { return loads_[node].dp_util; }
  double cp_load(size_t node) const { return loads_[node].cp_load; }
  // Fractional load: the most constrained dimension (0 = empty, 1 = full).
  double LoadScore(size_t node) const;

  uint64_t admitted() const { return admitted_; }
  uint64_t refused() const { return refused_; }

 private:
  struct Load {
    int vms = 0;
    double dp_util = 0.0;
    double cp_load = 0.0;
  };

  NodeCapacity capacity_;
  std::vector<Load> loads_;
  uint64_t admitted_ = 0;
  uint64_t refused_ = 0;
};

}  // namespace taichi::fleet

#endif  // SRC_FLEET_PLACER_H_
