#include "src/scenario/chaos.h"

#include <algorithm>

#include "src/fleet/cluster.h"
#include "src/sim/logging.h"

namespace taichi::scenario {

const char* ToString(ChaosAction::Kind kind) {
  switch (kind) {
    case ChaosAction::Kind::kCrash:
      return "crash";
    case ChaosAction::Kind::kRestart:
      return "restart";
    case ChaosAction::Kind::kAccelStall:
      return "accel-stall";
    case ChaosAction::Kind::kCpFlood:
      return "cp-flood";
    case ChaosAction::Kind::kHotplugStorm:
      return "hotplug-storm";
  }
  return "?";
}

ChaosEngine::ChaosEngine(fleet::Cluster* cluster, ChaosConfig config)
    : cluster_(cluster), config_(std::move(config)), rng_(config_.seed) {
  std::stable_sort(config_.script.begin(), config_.script.end(),
                   [](const ChaosAction& a, const ChaosAction& b) { return a.at < b.at; });
}

ChaosEngine::~ChaosEngine() {
  if (hook_id_ != 0) {
    Disarm();
  }
}

int ChaosEngine::Count(ChaosAction::Kind kind) const {
  return static_cast<int>(std::count_if(fired_.begin(), fired_.end(),
                                        [kind](const Fired& f) { return f.kind == kind; }));
}

void ChaosEngine::AddListener(NodeLifecycleListener* listener) {
  listeners_.push_back(listener);
}

void ChaosEngine::Arm() {
  if (hook_id_ != 0) {
    TAICHI_ERROR(cluster_->Now(), "chaos: Arm called twice");
    return;
  }
  hook_id_ = cluster_->AddEpochHook([this](sim::SimTime now) { OnEpoch(now); });
}

void ChaosEngine::Disarm() {
  if (hook_id_ != 0) {
    cluster_->RemoveEpochHook(hook_id_);
    hook_id_ = 0;
  }
}

void ChaosEngine::Crash(size_t node, sim::SimTime now) {
  if (!cluster_->alive(node)) {
    return;  // Scripted crash raced a random one; the node is already dark.
  }
  for (NodeLifecycleListener* l : listeners_) {
    l->OnNodeCrash(*cluster_, node);
  }
  cluster_->CrashNode(node);
  fired_.push_back({now, ChaosAction::Kind::kCrash, static_cast<int>(node)});
}

void ChaosEngine::Restart(size_t node, sim::SimTime now) {
  if (cluster_->alive(node)) {
    return;
  }
  cluster_->RestartNode(node);
  fired_.push_back({now, ChaosAction::Kind::kRestart, static_cast<int>(node)});
  for (NodeLifecycleListener* l : listeners_) {
    l->OnNodeRestart(*cluster_, node);
  }
}

void ChaosEngine::Apply(const ChaosAction& action, sim::SimTime now) {
  const size_t node = static_cast<size_t>(action.node);
  if (action.node < 0 || node >= cluster_->size()) {
    TAICHI_ERROR(now, "chaos: action %s targets nonexistent node %d",
                 ToString(action.kind), action.node);
    return;
  }
  switch (action.kind) {
    case ChaosAction::Kind::kCrash:
      Crash(node, now);
      return;
    case ChaosAction::Kind::kRestart:
      Restart(node, now);
      return;
    case ChaosAction::Kind::kAccelStall:
      if (cluster_->alive(node)) {
        cluster_->node(node).StallAccelerator(action.duration);
        fired_.push_back({now, action.kind, action.node});
      }
      return;
    case ChaosAction::Kind::kCpFlood:
      if (cluster_->alive(node)) {
        // Seeded by the floods fired before this one.
        cluster_->node(node).SpawnCpFlood(
            action.count, action.iterations,
            0xf100d ^ (static_cast<uint64_t>(Count(action.kind)) << 8));
        fired_.push_back({now, action.kind, action.node});
      }
      return;
    case ChaosAction::Kind::kHotplugStorm:
      if (cluster_->alive(node)) {
        cluster_->node(node).SpawnHotplugStorm(action.count, action.duration,
                                               static_cast<uint64_t>(Count(action.kind)));
        fired_.push_back({now, action.kind, action.node});
      }
      return;
  }
}

void ChaosEngine::OnEpoch(sim::SimTime now) {
  // 1) Queued auto-restarts, oldest first. These fire even when quiesced:
  //    the drain path must bring crashed nodes back, not strand them.
  while (!pending_.empty() && pending_.front().at <= now) {
    ChaosAction action = pending_.front();
    pending_.erase(pending_.begin());
    Apply(action, now);
  }
  if (quiesced_) {
    return;
  }
  // 2) Scripted actions due at this boundary, in script order.
  while (script_next_ < config_.script.size() && config_.script[script_next_].at <= now) {
    Apply(config_.script[script_next_], now);
    ++script_next_;
  }
  // 3) The seeded-random layer. The draw sequence is fixed — one draw per
  //    enabled kind per node per epoch, dead or alive — so the Rng stream
  //    never forks on fleet state and the whole run replays exactly.
  for (size_t i = 0; i < cluster_->size(); ++i) {
    if (config_.crash_prob > 0 && rng_.Bernoulli(config_.crash_prob)) {
      if (cluster_->alive(i) && cluster_->alive_count() > config_.min_alive) {
        Crash(i, now);
        ChaosAction restart;
        restart.at = now + config_.down_time;
        restart.node = static_cast<int>(i);
        restart.kind = ChaosAction::Kind::kRestart;
        pending_.push_back(restart);
      }
    }
    if (config_.stall_prob > 0 && rng_.Bernoulli(config_.stall_prob)) {
      ChaosAction a;
      a.node = static_cast<int>(i);
      a.kind = ChaosAction::Kind::kAccelStall;
      a.duration = config_.stall_duration;
      Apply(a, now);
    }
    if (config_.flood_prob > 0 && rng_.Bernoulli(config_.flood_prob)) {
      ChaosAction a;
      a.node = static_cast<int>(i);
      a.kind = ChaosAction::Kind::kCpFlood;
      a.count = config_.flood_tasks;
      a.iterations = config_.flood_iterations;
      Apply(a, now);
    }
    if (config_.storm_prob > 0 && rng_.Bernoulli(config_.storm_prob)) {
      ChaosAction a;
      a.node = static_cast<int>(i);
      a.kind = ChaosAction::Kind::kHotplugStorm;
      a.count = config_.storm_ops;
      a.duration = config_.storm_routine;
      Apply(a, now);
    }
  }
}

}  // namespace taichi::scenario
