// Chaos + adversarial-traffic walkthrough: a 12-node staged Tai Chi rollout
// that takes a node crash mid-rollout, converges anyway, and is then hit by
// a spoofed-source DDoS flood — which the SLO monitor pins to one victim
// node and the packet-path sketches attribute to the attacker flows.
//
// The run, in order:
//   1. 12 baseline nodes under the Fig. 3 mix at 4x density (fleet breaches).
//   2. Staged rollout (2 -> 6 -> 12 nodes on Tai Chi), gated on the SLO.
//   3. Mid-rollout, the chaos engine power-losses node03 — already running
//      Tai Chi — and reboots it 60 ms later. The rollout (a node-lifecycle
//      listener) re-enables Tai Chi on the fresh Testbed, so the node
//      rejoins its wave and the rollout still converges.
//   4. Once the fleet is converged, a volumetric flood from spoofed
//      TEST-NET-2 sources (198.51.100.x) opens up on node00. The flood eats
//      the DP idle Tai Chi donates to the control plane, node00's VM-startup
//      tail rises over the fleet's, and the hotspot report names the attack
//      flows — out of constant-space sketches, no per-flow table anywhere.
//
//   $ ./examples/chaos_demo
#include <cstdio>
#include <memory>

#include "src/fleet/cluster.h"
#include "src/fleet/rollout.h"
#include "src/fleet/slo_monitor.h"
#include "src/scenario/chaos.h"
#include "src/scenario/generators.h"
#include "src/scenario/library.h"
#include "src/scenario/scenario.h"
#include "src/sim/table.h"

using namespace taichi;

namespace {
constexpr int kNodes = 12;
constexpr int kDensity = 4;
// The flood opens after the rollout has converged (~3.0 s of simulated
// time), so the attack hits a healthy Tai Chi fleet, not a mid-gate one.
const sim::Duration kFloodAt = sim::Millis(3000);
}  // namespace

int main() {
  std::printf("Chaos demo: mid-rollout crash + DDoS flood on a 12-node fleet\n\n");

  const scenario::Fig3Mix mix = scenario::Fig3DensityMix(kDensity);
  fleet::ClusterConfig ccfg;
  ccfg.num_nodes = kNodes;
  ccfg.seed = 7;
  ccfg.epoch = sim::Millis(5);
  ccfg.threads = 4;  // Thread count never changes what the simulation computes.
  ccfg.node.mode = exp::Mode::kBaseline;
  ccfg.tweak = mix.tweak;
  fleet::Cluster cluster(ccfg);

  // Fig. 3 mix plus the spoofed flood at node00, armed for t=3.0 s.
  scenario::DdosConfig acfg;
  acfg.load = mix.load;
  acfg.start_after = kFloodAt;
  scenario::DdosSource source(acfg);

  // Scripted chaos: crash node03 at t=1.5 s — inside wave 1's settle, when
  // node03 is already running Tai Chi — and reboot it 60 ms later.
  scenario::ChaosConfig chcfg;
  chcfg.script = {
      {sim::Millis(1500), 3, scenario::ChaosAction::Kind::kCrash, 0, 0, 0},
      {sim::Millis(1560), 3, scenario::ChaosAction::Kind::kRestart, 0, 0, 0},
  };
  scenario::ChaosEngine chaos(&cluster, chcfg);
  chaos.AddListener(&source);

  source.Start(cluster);
  chaos.Arm();

  // Phase 1: the whole fleet on the baseline.
  cluster.RunFor(sim::Millis(300));

  // Phase 2: the staged rollout, with the crash landing mid-flight.
  fleet::RolloutConfig rcfg;
  rcfg.waves = {2, 6, kNodes};
  rcfg.settle = sim::Millis(600);
  rcfg.soak = sim::Millis(300);
  fleet::Rollout rollout(&cluster, rcfg);
  // The rollout listens for lifecycle events through the same chaos path as
  // the traffic source: a restarted enabled-set node gets Tai Chi back.
  chaos.AddListener(&rollout);
  rollout.Start();
  const sim::SimTime deadline = cluster.Now() + sim::Seconds(5);
  while (rollout.state() == fleet::Rollout::State::kSoaking && cluster.Now() < deadline) {
    cluster.RunFor(sim::Millis(50));
  }

  std::printf("--- rollout (with a crash at 1500 ms) ---\n");
  for (const fleet::Rollout::Event& e : rollout.history()) {
    std::printf("  [%8.1f ms] %s\n", sim::ToSeconds(e.at) * 1e3, e.what.c_str());
  }
  for (const scenario::ChaosEngine::Fired& f : chaos.fired()) {
    std::printf("  [%8.1f ms] chaos: %s node%02d\n", sim::ToSeconds(f.at) * 1e3,
                scenario::ToString(f.kind), f.node);
  }
  std::printf("rollout %s; %zu/%d nodes up\n\n",
              rollout.state() == fleet::Rollout::State::kDone ? "converged" : "DID NOT CONVERGE",
              cluster.alive_count(), kNodes);

  // Phase 3: the flood hits the converged fleet. Watch p90 in 200 ms
  // windows: the victim is <10% of fleet samples, so the fleet value stays
  // anchored by the healthy nodes while node00's own p90 climbs — the
  // contrast the hotspot rule keys on.
  fleet::SloConfig slo;
  slo.threshold = 100.0;
  slo.percentile = 90.0;
  slo.min_samples = 10;
  slo.hotspot_factor = 1.3;
  slo.heavy_hitters = 8;
  fleet::SloMonitor monitor(&cluster, slo);
  if (cluster.Now() < kFloodAt) {
    cluster.RunFor(kFloodAt - cluster.Now());
  }
  monitor.Observe();  // Reset the window: samples from here on see the flood.

  for (int w = 0; w < 3; ++w) {
    cluster.RunFor(sim::Millis(200));
    const fleet::SloMonitor::Report r = monitor.Observe();
    std::printf("--- window %d @ %.0f ms: fleet p90 %.1f ms (%zu samples) ---\n", w,
                sim::ToSeconds(r.at) * 1e3, r.fleet_value, r.total_samples);
    if (r.hotspots.empty()) {
      std::printf("  no hotspots\n");
    }
    for (int id : r.hotspots) {
      const fleet::SloMonitor::NodeStat& n = r.nodes[static_cast<size_t>(id)];
      std::printf("  HOTSPOT %s: p90 %.1f ms vs fleet %.1f ms\n",
                  cluster.node_name(static_cast<size_t>(id)).c_str(), n.value, r.fleet_value);
      sim::Table t({"Heavy flow on its DP tap", "KB", "pkts", "share", ""});
      for (const fleet::SloMonitor::HeavyFlow& f : n.heavy) {
        t.AddRow({f.key.ToString(), sim::Table::Num(static_cast<double>(f.bytes) / 1e3, 1),
                  std::to_string(f.packets), sim::Table::Num(100.0 * f.share, 1) + "%",
                  scenario::IsAttackFlow(f) ? "<< attack range" : ""});
      }
      t.Print();
    }
  }

  source.Stop(cluster);
  chaos.Disarm();
  return 0;
}
