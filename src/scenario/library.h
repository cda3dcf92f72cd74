// The named-scenario library: canonical, seed-parameterized experiment
// definitions shared by bench/scenario_suite, bench/fleet_rollout
// (--scenario) and the scenario tests.
//
//   baseline     the Fig. 3 fleet mix on a Tai Chi fleet — must hold the SLO.
//   diurnal      the mix under a day/night load curve — must still hold it.
//   incast       periodic synchronized fan-in bursts at one victim node.
//   ddos         a spoofed-source volumetric flood at one victim node; the
//                SLO monitor must flag the victim as a hotspot AND the
//                sketch attribution must name flows from the attack range.
//   crash-churn  seeded-random node crash/auto-restart churn under the mix;
//                every node must be back up at the end.
//   storm        accelerator stalls + CP floods + hotplug storms (no
//                crashes): the "everything is degraded" soak.
//
// The autopilot-* scenarios run a heterogeneous all-baseline fleet under the
// fleet::Autopilot controller (src/fleet/autopilot.h) and gate on recovery:
//
//   autopilot-ddos         hot/cool fleet converged by the autopilot, then a
//                          flood at an enabled hot node; the fleet p-tail
//                          must come back under the SLO within K windows
//                          with fewer Tai Chi vCPUs than enabling everyone.
//   autopilot-crash-churn  the same fleet under crash/auto-restart churn;
//                          evict/readmit/re-enable must bound the longest
//                          unhealthy streak.
//   autopilot-overload     a uniform fleet hit by a fleet-wide demand surge
//                          nothing can absorb: graceful degradation must
//                          shed background load and fully restore it after.
//
// Fig3DensityMix is the single definition of the paper's density-scaled
// load shape (Fig. 3 DP mix + §6.6 VM-arrival pressure); fleet_rollout and
// every scenario build on it instead of hand-rolling the tweak. Every
// scenario's source is a Fig3Source or a generator derived from it, all in
// generators.h, which this header includes so that harnesses building the
// plain mix (Fig3Source(mix.load)) need only this one.
#ifndef SRC_SCENARIO_LIBRARY_H_
#define SRC_SCENARIO_LIBRARY_H_

#include <memory>
#include <string>
#include <vector>

#include "src/fleet/load_gen.h"
#include "src/scenario/generators.h"
#include "src/scenario/scenario.h"

namespace taichi::scenario {

// The canonical Fig. 3 mix at an instance-density multiple: the LoadGen
// shape plus the per-node Testbed tweak (devices per VM-startup workflow,
// background monitor count) that fleet_rollout §6.6 uses.
struct Fig3Mix {
  fleet::LoadGenConfig load;
  std::function<void(int, exp::TestbedConfig&)> tweak;
};
Fig3Mix Fig3DensityMix(int density);

// Runtime knobs a harness may override; scenario defaults fill the rest.
struct ScenarioOptions {
  int nodes = 12;
  int density = 4;
  uint64_t seed = 42;
  int threads = 1;
  // 0 = the scenario's default observed-phase length.
  sim::Duration observed = 0;
  bool enable_trace = false;
  // The autopilot-* scenarios run their controller by default; false runs
  // the same fleet, fault and clock without it — the static counterfactual
  // CI compares against (the breach must persist when nobody heals it).
  bool autopilot = true;
};

// Names accepted by BuildScenario, in presentation order.
const std::vector<std::string>& ScenarioNames();

// Builds the named scenario's full spec. Unknown names return a spec with
// an empty `name` (and a TAICHI_ERROR); callers must check.
ScenarioSpec BuildScenario(const std::string& name, const ScenarioOptions& opts);

}  // namespace taichi::scenario

#endif  // SRC_SCENARIO_LIBRARY_H_
