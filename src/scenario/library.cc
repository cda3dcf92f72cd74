#include "src/scenario/library.h"

#include <algorithm>

#include "src/sim/logging.h"

namespace taichi::scenario {
namespace {

// The §6.6 SmartNIC-side VM-startup budget: the 160 ms product SLO minus
// the host-side instantiation that happens after the device workflow.
constexpr double kNicSloMs = 100.0;

fleet::ClusterConfig BaseCluster(const ScenarioOptions& opts, const Fig3Mix& mix) {
  fleet::ClusterConfig ccfg;
  ccfg.num_nodes = std::max(2, opts.nodes);
  ccfg.seed = opts.seed;
  ccfg.epoch = sim::Millis(5);
  ccfg.threads = opts.threads;
  ccfg.node.mode = exp::Mode::kTaiChi;
  ccfg.enable_trace = opts.enable_trace;
  ccfg.tweak = mix.tweak;
  return ccfg;
}

fleet::SloConfig BaseSlo() {
  fleet::SloConfig slo;
  slo.threshold = kNicSloMs;
  slo.percentile = 99.0;
  slo.min_samples = 20;
  slo.heavy_hitters = 4;
  return slo;
}

}  // namespace

Fig3Mix Fig3DensityMix(int density) {
  Fig3Mix mix;
  // 30 arrivals/s per density: the §6.6 pressure point where the static
  // 4-CPU control plane saturates but Tai Chi's donated DP cycles do not.
  mix.load.vm_arrival_rate_per_sec = 30.0 * density;
  mix.tweak = [density](int, exp::TestbedConfig& cfg) {
    cfg.vm_startup.devices_per_vm = 6 * density;
    cfg.monitors.count = 6 * density;
  };
  return mix;
}

const std::vector<std::string>& ScenarioNames() {
  static const std::vector<std::string> kNames = {
      "baseline",    "diurnal",        "incast",
      "ddos",        "crash-churn",    "storm",
      "autopilot-ddos", "autopilot-crash-churn", "autopilot-overload"};
  return kNames;
}

ScenarioSpec BuildScenario(const std::string& name, const ScenarioOptions& opts) {
  Fig3Mix mix = Fig3DensityMix(std::max(1, opts.density));
  // Every stream in the run keys off the one scenario seed; the load seed
  // is decorrelated from the cluster's node-seed stream by construction.
  mix.load.seed = 2024u ^ (opts.seed * 0x9e3779b97f4a7c15ULL);

  ScenarioSpec spec;
  spec.cluster = BaseCluster(opts, mix);
  spec.slo = BaseSlo();
  spec.warmup = sim::Millis(200);
  spec.observed = opts.observed > 0 ? opts.observed : sim::Millis(600);
  spec.observe_every = sim::Millis(100);
  spec.drain = sim::Millis(100);
  spec.expect.min_fleet_samples = 50;

  if (name == "baseline") {
    spec.name = "baseline";
    spec.description = "Fig. 3 mix on a Tai Chi fleet; the SLO must hold";
    const fleet::LoadGenConfig load = mix.load;
    spec.make_source = [load](fleet::Cluster&) -> std::unique_ptr<TrafficSource> {
      return std::make_unique<Fig3Source>(load);
    };
    spec.expect.max_breach_windows = 1;
    return spec;
  }
  if (name == "diurnal") {
    spec.name = "diurnal";
    spec.description = "day/night load curve over the mix; the SLO must hold";
    DiurnalConfig dcfg;
    dcfg.load = mix.load;
    spec.observed = opts.observed > 0 ? opts.observed : sim::Millis(800);
    spec.make_source = [dcfg](fleet::Cluster&) -> std::unique_ptr<TrafficSource> {
      return std::make_unique<DiurnalSource>(dcfg);
    };
    spec.expect.max_breach_windows = 2;
    return spec;
  }
  if (name == "incast") {
    spec.name = "incast";
    spec.description = "synchronized fan-in bursts at one victim node";
    IncastConfig icfg;
    icfg.load = mix.load;
    spec.make_source = [icfg](fleet::Cluster&) -> std::unique_ptr<TrafficSource> {
      return std::make_unique<IncastSource>(icfg);
    };
    spec.expect.max_breach_windows = 2;
    return spec;
  }
  if (name == "ddos") {
    spec.name = "ddos";
    spec.description =
        "spoofed-source flood at a victim node; hotspot + attack attribution";
    DdosConfig acfg;
    acfg.load = mix.load;
    spec.make_source = [acfg](fleet::Cluster&) -> std::unique_ptr<TrafficSource> {
      return std::make_unique<DdosSource>(acfg);
    };
    // Wider windows: at 120 VM arrivals/s/node a 200 ms window holds ~24
    // samples per node, enough for the per-node hotspot rule to engage.
    spec.observed = opts.observed > 0 ? opts.observed : sim::Millis(800);
    spec.observe_every = sim::Millis(200);
    // Watch p90, not p99: the victim contributes < 10% of fleet samples, so
    // the fleet p90 stays anchored by the healthy nodes while the victim's
    // own p90 climbs — the contrast the hotspot rule needs. (The fleet p99
    // IS the victim's tail here, which would hide the hotspot entirely.)
    spec.slo.percentile = 90.0;
    spec.slo.min_samples = 10;  // The starved victim completes fewer per window.
    spec.slo.hotspot_factor = 1.3;
    spec.slo.heavy_hitters = 8;
    spec.expect.min_hotspot_windows = 1;
    spec.expect.require_attack_attribution = true;
    // The flood must visibly overflow the victim's descriptor ring: drops
    // are part of the verdict, not silent.
    spec.expect.min_rx_ring_drops = 1;
    return spec;
  }
  if (name == "crash-churn") {
    spec.name = "crash-churn";
    spec.description = "seeded-random crash/auto-restart churn under the mix";
    const fleet::LoadGenConfig load = mix.load;
    spec.make_source = [load](fleet::Cluster&) -> std::unique_ptr<TrafficSource> {
      return std::make_unique<Fig3Source>(load);
    };
    spec.use_chaos = true;
    spec.chaos.crash_prob = 0.004;
    spec.chaos.down_time = sim::Millis(30);
    spec.chaos.seed = 0x5eedull ^ opts.seed;
    spec.chaos.min_alive =
        std::max<size_t>(1, static_cast<size_t>(spec.cluster.num_nodes) / 2);
    spec.drain = sim::Millis(150);
    spec.expect.max_breach_windows = 3;
    spec.expect.require_crashes = true;
    spec.expect.require_full_recovery = true;
    return spec;
  }
  if (name == "storm") {
    spec.name = "storm";
    spec.description =
        "accelerator stalls + CP floods + hotplug storms, no crashes";
    const fleet::LoadGenConfig load = mix.load;
    spec.make_source = [load](fleet::Cluster&) -> std::unique_ptr<TrafficSource> {
      return std::make_unique<Fig3Source>(load);
    };
    spec.use_chaos = true;
    spec.chaos.stall_prob = 0.010;
    spec.chaos.stall_duration = sim::Micros(800);
    spec.chaos.flood_prob = 0.006;
    spec.chaos.storm_prob = 0.004;
    spec.chaos.seed = 0x5701ull ^ opts.seed;
    spec.expect.max_breach_windows = 3;
    return spec;
  }

  if (name == "autopilot-ddos" || name == "autopilot-crash-churn" ||
      name == "autopilot-overload") {
    // All autopilot scenarios start every node as BASELINE: which nodes run
    // Tai Chi (and when) is the controller's decision, and the verdict's
    // enabled_vcpus vs static_vcpus contrast is the point.
    spec.cluster.node.mode = exp::Mode::kBaseline;
    spec.use_autopilot = opts.autopilot;
    // The runner watches p90 in wide windows for the same reason ddos does:
    // one hurting node must stand out against a healthy-anchored fleet tail.
    spec.slo.percentile = 90.0;
    spec.slo.min_samples = 10;
    spec.slo.hotspot_factor = 1.3;
    spec.slo.heavy_hitters = 8;
    spec.observe_every = sim::Millis(200);

    // The controller's own (faster) observation loop.
    spec.autopilot.slo = spec.slo;
    spec.autopilot.slo.min_samples = 8;
    spec.autopilot.observe_every = sim::Millis(100);
    spec.autopilot.hysteresis_windows = 2;
    spec.autopilot.settle_windows = 1;
    spec.autopilot.cooldown_windows = 1;

    if (name == "autopilot-overload") {
      // Uniform density-2 fleet; SurgeConfig's default x6 fleet-wide
      // VM-arrival surge, which nothing can absorb. During it migration has
      // no target (everyone breaches), so the ladder must fall through to
      // shedding — and unwind it afterwards.
      spec.name = name;
      spec.description =
          "fleet-wide demand surge; shed background load, restore after";
      const Fig3Mix omix = Fig3DensityMix(2);
      SurgeConfig scfg;
      scfg.load = omix.load;
      scfg.load.seed = mix.load.seed;
      spec.cluster.tweak = omix.tweak;
      spec.make_source = [scfg](fleet::Cluster&) -> std::unique_ptr<TrafficSource> {
        return std::make_unique<SurgeSource>(scfg);
      };
      spec.autopilot.max_actions_per_window = 4;
      spec.fault_at = scfg.start;
      spec.warmup = sim::Millis(800);
      spec.observed = opts.observed > 0 ? opts.observed : sim::Millis(3200);
      spec.expect.min_breach_windows = opts.autopilot ? 1 : 4;
      if (opts.autopilot) {
        spec.expect.max_recovery_windows = 10;
        spec.expect.require_shed_restored = true;
      }
      return spec;
    }

    // The heterogeneous hot/cool fleet the other two share: 1/3 of the
    // nodes carry density-4 tenants (baseline cannot hold them: the §6.6
    // pressure point), the rest density-1 (baseline holds easily). Static
    // provisioning enables Tai Chi everywhere; the autopilot must find the
    // hot subset and leave the cool nodes' vCPU budget unspent.
    const int hot = std::max(1, spec.cluster.num_nodes / 3);
    const int hot_density = 4;
    fleet::LoadGenConfig load = Fig3DensityMix(1).load;
    load.seed = mix.load.seed;
    load.node_vm_scale.assign(static_cast<size_t>(spec.cluster.num_nodes), 1.0);
    for (int i = 0; i < hot; ++i) {
      load.node_vm_scale[static_cast<size_t>(i)] = hot_density;
    }
    spec.cluster.tweak = [hot, hot_density](int node, exp::TestbedConfig& cfg) {
      const int d = node < hot ? hot_density : 1;
      cfg.vm_startup.devices_per_vm = 6 * d;
      cfg.monitors.count = 6 * d;
    };
    // Long warmup: the controller needs it to converge (hysteresis, two
    // enables per window, settle) before the fault lands.
    spec.warmup = sim::Millis(1600);
    spec.observed = opts.observed > 0 ? opts.observed : sim::Millis(2400);

    if (name == "autopilot-ddos") {
      spec.name = name;
      spec.description =
          "flood at an autopilot-enabled hot node; migrate + boost back under SLO";
      DdosConfig acfg;
      acfg.load = load;
      acfg.start_after = sim::Millis(1800);  // Just after the observed phase opens.
      spec.make_source = [acfg](fleet::Cluster&) -> std::unique_ptr<TrafficSource> {
        return std::make_unique<DdosSource>(acfg);
      };
      // A volumetric flood inflates DP "utilization" exactly when the CP
      // side is starving: handing the donated cores back (§8 boost) would
      // feed the attacker and pin the victim's CP onto its static partition.
      // Reserve the boost for genuine near-saturation.
      spec.autopilot.dp_boost_on = 0.85;
      spec.autopilot.dp_boost_off = 0.60;
      spec.fault_at = sim::Millis(1800);
      if (opts.autopilot) {
        spec.expect.min_hotspot_windows = 1;
        spec.expect.max_recovery_windows = 7;
        spec.expect.require_fewer_taichi_cpus = true;
      } else {
        // Untreated, the hot nodes drag the whole fleet under: nothing is a
        // relative outlier any more, everything just breaches.
        spec.expect.min_breach_windows = 6;
      }
      return spec;
    }

    // autopilot-crash-churn: the same hot/cool fleet under seeded random
    // crash/auto-restart churn. Faults recur, so the gate is the longest
    // unhealthy streak, not time-to-first-recovery.
    spec.name = name;
    spec.description =
        "crash churn on the hot/cool fleet; evict, readmit, re-enable";
    spec.make_source = [load](fleet::Cluster&) -> std::unique_ptr<TrafficSource> {
      return std::make_unique<Fig3Source>(load);
    };
    spec.use_chaos = true;
    spec.chaos.crash_prob = 0.004;
    spec.chaos.down_time = sim::Millis(30);
    spec.chaos.seed = 0x5eedull ^ opts.seed;
    spec.chaos.min_alive =
        std::max<size_t>(1, static_cast<size_t>(spec.cluster.num_nodes) / 2);
    spec.drain = sim::Millis(150);
    spec.expect.require_crashes = true;
    spec.expect.require_full_recovery = true;
    if (opts.autopilot) {
      spec.expect.max_breach_streak = 6;
      spec.expect.require_fewer_taichi_cpus = true;
    }
    return spec;
  }

  TAICHI_ERROR(0, "scenario: unknown scenario '%s'", name.c_str());
  spec.name.clear();
  spec.make_source = [](fleet::Cluster&) -> std::unique_ptr<TrafficSource> {
    return nullptr;
  };
  return spec;
}

}  // namespace taichi::scenario
