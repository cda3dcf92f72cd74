#include "src/fleet/autopilot.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/exp/testbed.h"
#include "src/sim/logging.h"

namespace taichi::fleet {
namespace {

// One migration moves this much VM-arrival share (TrafficSource::VmShare).
constexpr double kMigrateUnit = 1.0;
// No migration lands a node above this share. A unit of share is 2 VMs and
// 8 CP management units; against a node's 32 VM slots and 48 CP units the
// CP budget binds first, at 6 units.
constexpr double kMaxShare = 6.0;

}  // namespace

const char* ToString(Autopilot::Act act) {
  switch (act) {
    case Autopilot::Act::kEnable:
      return "enable";
    case Autopilot::Act::kMigrate:
      return "migrate";
    case Autopilot::Act::kDpBoost:
      return "dp_boost";
    case Autopilot::Act::kDpRevert:
      return "dp_revert";
    case Autopilot::Act::kShed:
      return "shed";
    case Autopilot::Act::kRestore:
      return "restore";
    case Autopilot::Act::kEvict:
      return "evict";
    case Autopilot::Act::kReadmit:
      return "readmit";
    case Autopilot::Act::kBackoff:
      return "backoff";
  }
  return "?";
}

Autopilot::Autopilot(Cluster* cluster, scenario::TrafficSource& source, AutopilotConfig config)
    : cluster_(cluster),
      source_(source),
      config_(std::move(config)),
      monitor_(cluster, config_.slo) {}

Autopilot::~Autopilot() { Disarm(); }

void Autopilot::Arm() {
  if (hook_id_ != 0) {
    TAICHI_ERROR(cluster_->Now(), "autopilot: Arm on an already-armed autopilot");
    return;
  }
  const size_t n = cluster_->size();
  breach_streak_.assign(n, 0);
  fail_streak_.assign(n, 0);
  cooldown_until_.assign(n, 0);
  boost_hi_streak_.assign(n, 0);
  boost_lo_streak_.assign(n, 0);
  was_enabled_.assign(n, false);
  prev_dp_work_.assign(n, 0);
  judge_.assign(n, Judge{});
  window_ = 0;
  settle_until_ = 0;
  healthy_streak_ = 0;

  for (size_t i = 0; i < n; ++i) {
    const double share = source_.VmShare(i);
    if (share > kMaxShare) {
      TAICHI_ERROR(cluster_->Now(), "autopilot: node %zu share %g exceeds the cap of %g", i,
                   share, kMaxShare);
    }
    if (cluster_->alive(i)) {
      prev_dp_work_[i] = cluster_->node(i).TotalDpWork();
    }
  }

  last_window_at_ = cluster_->Now();
  next_observe_ = last_window_at_ + config_.observe_every;
  monitor_.Observe();  // Reset cursors: window 1 sees only post-Arm samples.
  hook_id_ = cluster_->AddEpochHook([this](sim::SimTime now) { OnEpoch(now); });
}

void Autopilot::Disarm() {
  if (hook_id_ != 0) {
    cluster_->RemoveEpochHook(hook_id_);
    hook_id_ = 0;
  }
}

void Autopilot::OnEpoch(sim::SimTime now) {
  if (now < next_observe_) {
    return;
  }
  OnWindow(now);
  next_observe_ = now + config_.observe_every;
}

void Autopilot::OnWindow(sim::SimTime now) {
  ++window_;
  const SloMonitor::Report report = monitor_.Observe();
  const sim::Duration elapsed = now - last_window_at_;
  last_window_at_ = now;

  const size_t n = cluster_->size();
  std::vector<double> util(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    if (cluster_->alive(i)) {
      util[i] = DpUtilization(i, elapsed);
    }
  }

  for (size_t i = 0; i < n && i < report.nodes.size(); ++i) {
    const SloMonitor::NodeStat& s = report.nodes[i];
    const bool breach =
        cluster_->alive(i) && s.samples >= config_.slo.min_samples && s.breach;
    breach_streak_[i] = breach ? breach_streak_[i] + 1 : 0;
  }
  if (!report.fleet_breach && report.hotspots.empty()) {
    ++healthy_streak_;
  } else {
    healthy_streak_ = 0;
  }

  JudgePending(report, now);
  UpdateDpBoost(util, now);
  const int actions = Remediate(report, now);
  if (actions == 0) {
    Recover(now);
  }
}

// Reads the verdict on each node's last action: if the node is still
// breaching and its percentile did not drop by min_improvement, the action
// failed — double that node's cooldown (capped) so a remedy that is not
// working is retried less and less often instead of hammered.
void Autopilot::JudgePending(const SloMonitor::Report& report, sim::SimTime now) {
  for (size_t i = 0; i < judge_.size() && i < report.nodes.size(); ++i) {
    Judge& j = judge_[i];
    if (!j.active || window_ < j.at_window) {
      continue;
    }
    j.active = false;
    if (!cluster_->alive(i)) {
      continue;  // Crash already reset this node's controller state.
    }
    const SloMonitor::NodeStat& s = report.nodes[i];
    const bool still_breaching = s.samples >= config_.slo.min_samples && s.breach;
    const bool improved =
        !still_breaching || s.value <= j.value_then * (1.0 - config_.min_improvement);
    if (improved) {
      fail_streak_[i] = 0;
      continue;
    }
    fail_streak_[i] = std::min(fail_streak_[i] + 1, config_.max_backoff_exp);
    cooldown_until_[i] =
        window_ + (static_cast<size_t>(config_.cooldown_windows) << fail_streak_[i]);
    Log(now, Act::kBackoff, static_cast<int>(i), -1, s.value);
  }
}

// §8 inverse repartitioning: per-node DP-utilization hysteresis around the
// on/off band. Boost pauses donation (Testbed::SetDpBoost) while the data
// plane spikes; the revert threshold sits well below the trigger so the
// controller cannot chatter across a noisy boundary.
void Autopilot::UpdateDpBoost(const std::vector<double>& util, sim::SimTime now) {
  for (size_t i = 0; i < util.size(); ++i) {
    if (!cluster_->alive(i)) {
      boost_hi_streak_[i] = 0;
      boost_lo_streak_[i] = 0;
      continue;
    }
    exp::Testbed& bed = cluster_->node(i);
    if (!bed.taichi_enabled()) {
      boost_hi_streak_[i] = 0;
      boost_lo_streak_[i] = 0;
      continue;
    }
    if (!bed.dp_boost()) {
      boost_lo_streak_[i] = 0;
      boost_hi_streak_[i] = util[i] >= config_.dp_boost_on ? boost_hi_streak_[i] + 1 : 0;
      if (boost_hi_streak_[i] >= config_.hysteresis_windows) {
        bed.SetDpBoost(true);
        boost_hi_streak_[i] = 0;
        Log(now, Act::kDpBoost, static_cast<int>(i), -1, util[i]);
      }
    } else {
      boost_hi_streak_[i] = 0;
      boost_lo_streak_[i] = util[i] <= config_.dp_boost_off ? boost_lo_streak_[i] + 1 : 0;
      if (boost_lo_streak_[i] >= config_.hysteresis_windows) {
        bed.SetDpBoost(false);
        boost_lo_streak_[i] = 0;
        Log(now, Act::kDpRevert, static_cast<int>(i), -1, util[i]);
      }
    }
  }
}

// The escalation ladder, hottest node first: enable Tai Chi -> migrate one
// unit of VM share (MigrationTarget) -> shed background load fleet-wide
// (once per window, only while the whole fleet breaches).
int Autopilot::Remediate(const SloMonitor::Report& report, sim::SimTime now) {
  if (window_ < settle_until_) {
    return 0;
  }
  struct Cand {
    int node;
    double value;
  };
  std::vector<Cand> cands;
  for (size_t i = 0; i < report.nodes.size() && i < breach_streak_.size(); ++i) {
    if (!cluster_->alive(i) || breach_streak_[i] < config_.hysteresis_windows ||
        window_ < cooldown_until_[i]) {
      continue;
    }
    cands.push_back({static_cast<int>(i), report.nodes[i].value});
  }
  std::sort(cands.begin(), cands.end(), [](const Cand& a, const Cand& b) {
    if (a.value != b.value) {
      return a.value > b.value;
    }
    return a.node < b.node;
  });

  // Is the fleet lopsided (one suffering node against a mostly-healthy
  // fleet — migration has real targets) or uniformly drowning (any "cool"
  // target is one stale window from hot — only shedding helps)?
  int breaching_nodes = 0;
  int healthy_nodes = 0;
  for (size_t i = 0; i < report.nodes.size(); ++i) {
    if (!cluster_->alive(i) || report.nodes[i].samples < config_.slo.min_samples) {
      continue;
    }
    (report.nodes[i].breach ? breaching_nodes : healthy_nodes) += 1;
  }
  const bool lopsided = healthy_nodes > breaching_nodes;

  int actions = 0;
  bool shed_this_window = false;
  for (const Cand& c : cands) {
    if (actions >= config_.max_actions_per_window) {
      break;
    }
    const size_t i = static_cast<size_t>(c.node);
    exp::Testbed& bed = cluster_->node(i);
    if (bed.taichi_draining()) {
      continue;  // Mid-drain: no lever is safe to pull until it settles.
    }
    if (!bed.taichi_enabled()) {
      bed.EnableTaiChi();
      Log(now, Act::kEnable, c.node, -1, c.value);
      NoteAction(i, report);
      ++actions;
      continue;
    }
    if (lopsided) {
      // The source refuses a donor holding less than one unit.
      const int target = MigrationTarget(report, i);
      if (target >= 0 &&
          source_.MigrateVmShare(i, static_cast<size_t>(target), kMigrateUnit)) {
        Log(now, Act::kMigrate, c.node, target, c.value);
        NoteAction(i, report);
        ++actions;
        continue;
      }
    }
    // Nothing node-local left and nowhere to move the load: if the whole
    // fleet is breaching, degrade gracefully — one bounded shed step.
    if (report.fleet_breach && !shed_this_window &&
        shed_factor_ - config_.shed_step >= config_.shed_floor - 1e-9) {
      shed_factor_ -= config_.shed_step;
      ApplyShed();
      shed_this_window = true;
      Log(now, Act::kShed, -1, -1, shed_factor_);
      NoteAction(i, report);
      ++actions;
    }
  }
  if (actions > 0) {
    settle_until_ = window_ + static_cast<size_t>(config_.settle_windows);
  }
  return actions;
}

// The node that takes a unit of share leaving `from`: alive, neither a
// hotspot nor breaching in `report`, and with room for the unit under
// kMaxShare. The least share wins; strict < keeps ties at the lowest node
// id, deterministic across reruns and thread counts. -1 when none
// qualifies.
int Autopilot::MigrationTarget(const SloMonitor::Report& report, size_t from) const {
  int target = -1;
  double least = 0.0;
  for (size_t i = 0; i < report.nodes.size(); ++i) {
    const SloMonitor::NodeStat& s = report.nodes[i];
    if (i == from || !cluster_->alive(i) || s.hotspot || s.breach) {
      continue;  // Never aim a move at a node that is itself suffering.
    }
    const double share = source_.VmShare(i);
    if (share + kMigrateUnit > kMaxShare) {
      continue;
    }
    if (target < 0 || share < least) {
      target = static_cast<int>(i);
      least = share;
    }
  }
  return target;
}

// The unwind path: once the fleet has been healthy for recover_windows,
// restore one step of shed background load per qualifying window.
void Autopilot::Recover(sim::SimTime now) {
  if (healthy_streak_ < config_.recover_windows || shed_factor_ >= 1.0 - 1e-9) {
    return;
  }
  shed_factor_ = std::min(1.0, shed_factor_ + config_.shed_step);
  ApplyShed();
  Log(now, Act::kRestore, -1, -1, shed_factor_);
  healthy_streak_ = 0;
}

void Autopilot::ApplyShed() {
  for (size_t i = 0; i < cluster_->size(); ++i) {
    if (cluster_->alive(i)) {
      cluster_->node(i).ScaleBackgroundLoad(shed_factor_);
    }
  }
}

void Autopilot::NoteAction(size_t node, const SloMonitor::Report& report) {
  breach_streak_[node] = 0;  // Re-accumulate hysteresis before the next act.
  cooldown_until_[node] =
      window_ + (static_cast<size_t>(config_.cooldown_windows) << fail_streak_[node]);
  Judge& j = judge_[node];
  j.active = true;
  j.at_window = window_ + static_cast<size_t>(config_.settle_windows) + 1;
  j.value_then = node < report.nodes.size() ? report.nodes[node].value : 0.0;
}

void Autopilot::Log(sim::SimTime at, Act act, int node, int target, double value) {
  decisions_.push_back({at, act, node, target, value});
}

uint64_t Autopilot::Count(Act act) const {
  return static_cast<uint64_t>(std::count_if(decisions_.begin(), decisions_.end(),
                                             [act](const Decision& d) { return d.act == act; }));
}

double Autopilot::DpUtilization(size_t node, sim::Duration elapsed) {
  exp::Testbed& bed = cluster_->node(node);
  const sim::Duration work = bed.TotalDpWork();
  const sim::Duration delta = work - prev_dp_work_[node];
  prev_dp_work_[node] = work;
  const size_t cpus = bed.active_dp_cpus().size();
  if (cpus == 0 || elapsed <= 0 || delta <= 0) {
    return 0.0;
  }
  return sim::ToSeconds(delta) / (static_cast<double>(cpus) * sim::ToSeconds(elapsed));
}

void Autopilot::OnNodeCrash(Cluster& cluster, size_t node) {
  if (hook_id_ == 0) {
    return;
  }
  // Listeners run before the Testbed is torn down, so the Tai Chi state is
  // still readable. A node crashed mid-drain wanted Tai Chi off: it stays
  // baseline on restart.
  was_enabled_[node] = cluster.node(node).taichi_enabled();
  breach_streak_[node] = 0;
  fail_streak_[node] = 0;
  boost_hi_streak_[node] = 0;
  boost_lo_streak_[node] = 0;
  judge_[node].active = false;
  prev_dp_work_[node] = 0;
  // The node keeps its VM share while it is down: it takes no arrivals, and
  // MigrationTarget skips dead nodes.
  Log(cluster.Now(), Act::kEvict, static_cast<int>(node), -1,
      static_cast<double>(std::llround(source_.VmShare(node))));
}

void Autopilot::OnNodeRestart(Cluster& cluster, size_t node) {
  if (hook_id_ == 0 || !cluster.alive(node)) {
    return;
  }
  // Registration order puts the traffic source before the autopilot, so the
  // node's load is already re-provisioned by the time this runs.
  prev_dp_work_[node] = 0;  // Fresh Testbed: DP-work counter restarts at zero.
  Log(cluster.Now(), Act::kReadmit, static_cast<int>(node), -1,
      static_cast<double>(std::llround(source_.VmShare(node))));
  if (was_enabled_[node]) {
    cluster.node(node).EnableTaiChi();
    Log(cluster.Now(), Act::kEnable, static_cast<int>(node), -1, 0.0);
  }
  if (shed_factor_ < 1.0 - 1e-9) {
    cluster.node(node).ScaleBackgroundLoad(shed_factor_);
  }
}

int Autopilot::enabled_nodes() const {
  int count = 0;
  for (size_t i = 0; i < cluster_->size(); ++i) {
    if (cluster_->alive(i) && cluster_->node(i).taichi_enabled()) {
      ++count;
    }
  }
  return count;
}

int Autopilot::enabled_vcpus() const {
  int total = 0;
  for (size_t i = 0; i < cluster_->size(); ++i) {
    if (!cluster_->alive(i) || !cluster_->node(i).taichi_enabled()) {
      continue;
    }
    total += cluster_->node(i).config().taichi.num_vcpus;
  }
  return total;
}

}  // namespace taichi::fleet
