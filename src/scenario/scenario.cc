#include "src/scenario/scenario.h"

#include <algorithm>

#include "src/dp/sources.h"
#include "src/obs/json.h"
#include "src/sim/logging.h"

namespace taichi::scenario {

bool IsAttackFlow(const fleet::SloMonitor::HeavyFlow& flow) {
  return (flow.key.src_ip & dp::kAttackSrcMask) == dp::kAttackSrcBase;
}

std::string ScenarioVerdict::ToJson() const {
  obs::JsonWriter w;
  w.BeginObject();
  w.Field("scenario", scenario);
  w.Field("seed", seed);
  w.Field("nodes", nodes);
  w.Field("sim_ms", sim_ms);
  w.Field("pass", pass);
  w.Key("slo").BeginObject();
  w.Field("windows", static_cast<uint64_t>(windows));
  w.Field("breach_windows", static_cast<uint64_t>(breach_windows));
  w.Field("hotspot_windows", static_cast<uint64_t>(hotspot_windows));
  w.Field("attributed_windows", static_cast<uint64_t>(attributed_windows));
  w.Field("total_samples", static_cast<uint64_t>(total_samples));
  w.Field("worst_fleet_value_ms", worst_fleet_value);
  w.Field("last_fleet_value_ms", last_fleet_value);
  w.EndObject();
  w.Key("rx").BeginObject();
  w.Field("ring_drops", rx_ring_drops);
  w.Field("pool_drops", rx_pool_drops);
  w.Key("per_node_ring_drops").BeginArray();
  for (uint64_t d : node_rx_ring_drops) {
    w.Value(d);
  }
  w.EndArray();
  w.EndObject();
  w.Key("chaos").BeginObject();
  w.Field("crashes", crashes);
  w.Field("restarts", restarts);
  w.Field("stalls", stalls);
  w.Field("floods", floods);
  w.Field("storms", storms);
  w.Field("alive_at_end", static_cast<uint64_t>(alive_at_end));
  w.Field("pending_restarts", static_cast<uint64_t>(pending_restarts));
  w.EndObject();
  if (autopilot.engaged) {
    // Emitted only when the spec engaged an autopilot, so every legacy
    // scenario's verdict bytes (and the CI cmp gates over them) stand.
    const AutopilotStats& a = autopilot;
    w.Key("autopilot").BeginObject();
    w.Field("recovery_windows", static_cast<uint64_t>(a.recovery_windows));
    w.Field("max_breach_streak", static_cast<uint64_t>(a.max_breach_streak));
    w.Field("enables", a.enables);
    w.Field("migrations", a.migrations);
    w.Field("dp_boosts", a.dp_boosts);
    w.Field("dp_reverts", a.dp_reverts);
    w.Field("sheds", a.sheds);
    w.Field("restores", a.restores);
    w.Field("evictions", a.evictions);
    w.Field("readmits", a.readmits);
    w.Field("backoffs", a.backoffs);
    w.Field("shed_factor", a.shed_factor);
    w.Field("enabled_nodes", a.enabled_nodes);
    w.Field("enabled_vcpus", a.enabled_vcpus);
    w.Field("static_vcpus", a.static_vcpus);
    w.Key("decisions").BeginArray();
    for (const fleet::Autopilot::Decision& d : a.decisions) {
      w.BeginObject()
          .Field("at_ms", sim::ToSeconds(d.at) * 1e3)
          .Field("action", fleet::ToString(d.act))
          .Field("node", d.node)
          .Field("target", d.target)
          .Field("value", d.value)
          .EndObject();
    }
    w.EndArray();
    w.EndObject();
  }
  w.Key("checks").BeginArray();
  for (const ScenarioCheck& c : checks) {
    w.BeginObject();
    w.Field("name", c.name);
    w.Field("pass", c.pass);
    w.Field("detail", c.detail);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str() + "\n";
}

ScenarioRunner::ScenarioRunner(ScenarioSpec spec) : spec_(std::move(spec)) {
  cluster_ = std::make_unique<fleet::Cluster>(spec_.cluster);
  source_ = spec_.make_source(*cluster_);
  monitor_ = std::make_unique<fleet::SloMonitor>(cluster_.get(), spec_.slo);
  if (spec_.use_chaos) {
    chaos_ = std::make_unique<ChaosEngine>(cluster_.get(), spec_.chaos);
    chaos_->AddListener(source_.get());
  }
  if (spec_.use_autopilot) {
    autopilot_ = std::make_unique<fleet::Autopilot>(cluster_.get(), *source_, spec_.autopilot);
    if (chaos_ != nullptr) {
      // After the source: a restarted node's load is re-provisioned before
      // the autopilot re-enables Tai Chi on it.
      chaos_->AddListener(autopilot_.get());
    }
  }
}

ScenarioVerdict ScenarioRunner::Run() {
  ScenarioVerdict v;
  v.scenario = spec_.name;
  v.seed = spec_.cluster.seed;
  v.nodes = spec_.cluster.num_nodes;
  if (ran_) {
    TAICHI_ERROR(cluster_->Now(), "scenario: Run called twice");
    return v;
  }
  ran_ = true;

  source_->Start(*cluster_);
  if (chaos_ != nullptr) {
    chaos_->Arm();
  }
  if (autopilot_ != nullptr) {
    // Armed before warmup: the controller may need the warmup to converge
    // the fleet (enable Tai Chi where the shape demands it) pre-fault.
    autopilot_->Arm();
  }

  // Warmup: the queues fill, the sources reach steady state; the window
  // reset below throws these samples away.
  cluster_->RunFor(spec_.warmup);
  monitor_->Observe();

  // Observed phase: one SLO window per observe_every.
  const sim::Duration step = std::max<sim::Duration>(1, spec_.observe_every);
  sim::SimTime observed_end = cluster_->Now() + spec_.observed;
  while (cluster_->Now() < observed_end) {
    cluster_->RunFor(step);
    const fleet::SloMonitor::Report& report = window_reports_.emplace_back(monitor_->Observe());
    ++v.windows;
    v.total_samples += report.total_samples;
    if (report.total_samples > 0) {
      v.worst_fleet_value = std::max(v.worst_fleet_value, report.fleet_value);
      v.last_fleet_value = report.fleet_value;
    }
    if (report.fleet_breach) {
      ++v.breach_windows;
    }
    if (!report.hotspots.empty()) {
      ++v.hotspot_windows;
      bool attributed = false;
      for (const fleet::SloMonitor::HeavyFlow& f : report.fleet_heavy) {
        attributed = attributed || IsAttackFlow(f);
      }
      for (const fleet::SloMonitor::NodeStat& n : report.nodes) {
        for (const fleet::SloMonitor::HeavyFlow& f : n.heavy) {
          attributed = attributed || IsAttackFlow(f);
        }
      }
      if (attributed) {
        ++v.attributed_windows;
      }
    }
  }

  // Drain: no new faults, but queued auto-restarts still fire; give
  // stragglers a few extra epochs so the fleet ends whole.
  if (chaos_ != nullptr) {
    chaos_->Quiesce();
  }
  cluster_->RunFor(spec_.drain);
  for (int i = 0; chaos_ != nullptr && chaos_->pending_restarts() > 0 && i < 64; ++i) {
    cluster_->RunFor(spec_.cluster.epoch);
  }
  source_->Stop(*cluster_);
  if (chaos_ != nullptr) {
    chaos_->Disarm();
    v.crashes = chaos_->Count(ChaosAction::Kind::kCrash);
    v.restarts = chaos_->Count(ChaosAction::Kind::kRestart);
    v.stalls = chaos_->Count(ChaosAction::Kind::kAccelStall);
    v.floods = chaos_->Count(ChaosAction::Kind::kCpFlood);
    v.storms = chaos_->Count(ChaosAction::Kind::kHotplugStorm);
    v.pending_restarts = chaos_->pending_restarts();
  }
  v.alive_at_end = cluster_->alive_count();
  v.sim_ms = sim::ToSeconds(cluster_->Now()) * 1e3;

  // RX shedding tallies. Without these the verdict can claim a flood was
  // survived while every victim ring silently overflowed — drops must be
  // first-class, not invisible.
  v.node_rx_ring_drops.assign(cluster_->size(), 0);
  for (size_t i = 0; i < cluster_->size(); ++i) {
    if (!cluster_->alive(i)) {
      continue;
    }
    const hw::Accelerator& accel = cluster_->node(i).machine().accelerator();
    v.node_rx_ring_drops[i] = accel.ring_drops();
    v.rx_ring_drops += accel.ring_drops();
    v.rx_pool_drops += accel.pool_drops();
  }

  if (autopilot_ != nullptr) {
    ScenarioVerdict::AutopilotStats& a = v.autopilot;
    a.engaged = true;
    // Recovery/streak over the observed windows: a window is unhealthy when
    // the fleet aggregate breached or any node breached the absolute
    // threshold on enough samples. (The relative hotspot flag is NOT part
    // of health: a node served by its static CP partition is always slower
    // than its Tai Chi siblings, yet can sit comfortably under the SLO.)
    // Recovery counts post-fault windows up to and INCLUDING the last
    // unhealthy one: the fleet has recovered only once it is healthy and
    // stays healthy through the end of the run. A transient healthy window
    // followed by relapse does not count.
    size_t streak = 0;
    bool past_fault = false;
    size_t post_fault = 0;
    size_t last_unhealthy = 0;
    for (const fleet::SloMonitor::Report& r : window_reports_) {
      bool node_breach = false;
      for (const fleet::SloMonitor::NodeStat& n : r.nodes) {
        node_breach = node_breach || (n.samples >= spec_.slo.min_samples && n.breach);
      }
      const bool unhealthy = r.fleet_breach || node_breach;
      streak = unhealthy ? streak + 1 : 0;
      a.max_breach_streak = std::max(a.max_breach_streak, streak);
      past_fault = past_fault || r.at > spec_.fault_at;
      if (past_fault) {
        ++post_fault;
        if (unhealthy) {
          last_unhealthy = post_fault;
        }
      }
    }
    // Still unhealthy in the final window: never recovered — score as one
    // worse than every window so any finite gate fails.
    a.recovery_windows =
        (post_fault > 0 && last_unhealthy == post_fault) ? v.windows + 1 : last_unhealthy;
    using Act = fleet::Autopilot::Act;
    a.enables = autopilot_->Count(Act::kEnable);
    a.migrations = autopilot_->Count(Act::kMigrate);
    a.dp_boosts = autopilot_->Count(Act::kDpBoost);
    a.dp_reverts = autopilot_->Count(Act::kDpRevert);
    a.sheds = autopilot_->Count(Act::kShed);
    a.restores = autopilot_->Count(Act::kRestore);
    a.evictions = autopilot_->Count(Act::kEvict);
    a.readmits = autopilot_->Count(Act::kReadmit);
    a.backoffs = autopilot_->Count(Act::kBackoff);
    a.shed_factor = autopilot_->shed_factor();
    a.enabled_nodes = autopilot_->enabled_nodes();
    a.enabled_vcpus = autopilot_->enabled_vcpus();
    for (size_t i = 0; i < cluster_->size(); ++i) {
      if (cluster_->alive(i)) {
        a.static_vcpus += cluster_->node(i).config().taichi.num_vcpus;
      }
    }
    a.decisions = autopilot_->decisions();
    autopilot_->Disarm();
  }

  // Score the expectations.
  const ScenarioExpectations& e = spec_.expect;
  auto check = [&v](const std::string& name, bool pass, std::string detail) {
    v.checks.push_back({name, pass, std::move(detail)});
  };
  check("fleet_samples", v.total_samples >= e.min_fleet_samples,
        "want >= " + std::to_string(e.min_fleet_samples) + ", got " +
            std::to_string(v.total_samples));
  if (e.max_breach_windows != static_cast<size_t>(-1)) {
    check("breach_windows_max", v.breach_windows <= e.max_breach_windows,
          "want <= " + std::to_string(e.max_breach_windows) + ", got " +
              std::to_string(v.breach_windows));
  }
  if (e.min_breach_windows > 0) {
    check("breach_windows_min", v.breach_windows >= e.min_breach_windows,
          "want >= " + std::to_string(e.min_breach_windows) + ", got " +
              std::to_string(v.breach_windows));
  }
  if (e.min_hotspot_windows > 0) {
    check("hotspot_windows", v.hotspot_windows >= e.min_hotspot_windows,
          "want >= " + std::to_string(e.min_hotspot_windows) + ", got " +
              std::to_string(v.hotspot_windows));
  }
  if (e.require_attack_attribution) {
    check("attack_attributed", v.attributed_windows > 0,
          "want >= 1 window naming a " + std::string("198.51.100.x") +
              " flow, got " + std::to_string(v.attributed_windows));
  }
  if (e.require_crashes) {
    check("chaos_crashed", v.crashes > 0,
          "want >= 1 crash, got " + std::to_string(v.crashes));
  }
  if (e.min_rx_ring_drops > 0) {
    check("rx_ring_drops", v.rx_ring_drops >= e.min_rx_ring_drops,
          "want >= " + std::to_string(e.min_rx_ring_drops) + " shed at rx rings, got " +
              std::to_string(v.rx_ring_drops));
  }
  if (e.require_full_recovery) {
    check("full_recovery",
          v.alive_at_end == cluster_->size() && v.pending_restarts == 0,
          std::to_string(v.alive_at_end) + "/" + std::to_string(cluster_->size()) +
              " nodes up, " + std::to_string(v.pending_restarts) +
              " restarts pending");
  }
  if (v.autopilot.engaged) {
    const ScenarioVerdict::AutopilotStats& a = v.autopilot;
    if (e.max_recovery_windows != static_cast<size_t>(-1)) {
      check("recovery_windows", a.recovery_windows <= e.max_recovery_windows,
            "want <= " + std::to_string(e.max_recovery_windows) + " post-fault, got " +
                std::to_string(a.recovery_windows));
    }
    if (e.max_breach_streak != static_cast<size_t>(-1)) {
      check("breach_streak", a.max_breach_streak <= e.max_breach_streak,
            "want <= " + std::to_string(e.max_breach_streak) + " consecutive, got " +
                std::to_string(a.max_breach_streak));
    }
    if (e.require_fewer_taichi_cpus) {
      check("fewer_taichi_cpus",
            a.enabled_nodes >= 1 && a.enabled_vcpus < a.static_vcpus,
            std::to_string(a.enabled_vcpus) + " vCPUs on " +
                std::to_string(a.enabled_nodes) + " nodes vs " +
                std::to_string(a.static_vcpus) + " static");
    }
    if (e.require_shed_restored) {
      check("shed_restored", a.sheds > 0 && a.shed_factor >= 1.0 - 1e-9,
            std::to_string(a.sheds) + " sheds, " + std::to_string(a.restores) +
                " restores, factor " + std::to_string(a.shed_factor) + " at end");
    }
  }
  v.pass = true;
  for (const ScenarioCheck& c : v.checks) {
    v.pass = v.pass && c.pass;
  }
  return v;
}

}  // namespace taichi::scenario
