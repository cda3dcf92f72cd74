#include "src/fleet/load_gen.h"

#include <algorithm>
#include <cassert>

#include "src/sim/logging.h"

namespace taichi::fleet {

LoadGen::LoadGen(Cluster* cluster, LoadGenConfig config)
    : cluster_(cluster), config_(config) {
  // One sequential seed stream, like the cluster's: node i's draws do not
  // depend on how many nodes exist.
  sim::Rng seeder(config_.seed);
  arrival_rngs_.reserve(cluster_->size());
  for (size_t i = 0; i < cluster_->size(); ++i) {
    arrival_rngs_.emplace_back(seeder.Next());
  }
  vm_scale_.assign(cluster_->size(), 1.0);
  for (size_t i = 0; i < config_.node_vm_scale.size() && i < vm_scale_.size(); ++i) {
    vm_scale_[i] = std::max(0.0, config_.node_vm_scale[i]);
  }
}

void LoadGen::Start() {
  if (running_) {
    TAICHI_ERROR(cluster_->Now(), "load_gen: Start called twice — this would stack a "
                 "second source set on every DP CPU");
    assert(!running_ && "LoadGen::Start called twice");
    return;
  }
  running_ = true;
  node_mixes_.assign(config_.aggregate.enabled ? cluster_->size() : 0, NodeMix{});
  arrival_events_.assign(cluster_->size(), sim::kInvalidEventId);
  for (size_t i = 0; i < cluster_->size(); ++i) {
    StartNode(i);
  }
}

void LoadGen::StartNode(size_t node) {
  exp::Testbed& bed = cluster_->node(node);
  // The node's per-CPU average utilizations; in aggregate mode every CPU
  // shares one entry.
  std::vector<double> utils;
  if (config_.aggregate.enabled) {
    // Flow-aggregate path: the node's user population folds into one
    // aggregate rate + one flow count, modulated per node (one draw from the
    // same RNG the arrival stream uses — the node stays a function of its
    // one stream). The per-node salt (node + 1: never the 0 sentinel) keys a
    // fleet-distinct flow population.
    const LoadGenConfig::AggregateUsers& agg = config_.aggregate;
    const double mod = std::clamp(arrival_rngs_[node].LogNormal(1.0, config_.util_sigma),
                                  agg.mod_min, agg.mod_max);
    const double node_pps = agg.users_per_node * agg.pps_per_user * mod;
    const size_t cpus = bed.active_dp_cpus().size();
    const double full_rate = bed.RateForUtilization(1.0, config_.pkt_bytes);
    const double util = std::clamp(node_pps / (static_cast<double>(cpus) * full_rate),
                                   config_.util_min, config_.util_max);
    const double node_flows = agg.users_per_node * agg.flows_per_user;
    const uint32_t per_src_flows = static_cast<uint32_t>(
        std::max(1.0, node_flows / static_cast<double>(cpus)));
    utils.assign(1, util);  // One shared level: Testbed broadcasts per CPU.
    node_mixes_[node] = NodeMix{node_pps,
                                static_cast<uint32_t>(per_src_flows * cpus), util};
    bed.SetBackgroundFlows(per_src_flows, config_.flow_skew, node + 1);
  } else {
    // Per-CPU averages come from the arrival stream's sibling draws so the
    // whole node is a function of its one RNG.
    for (size_t c = 0; c < bed.active_dp_cpus().size(); ++c) {
      utils.push_back(std::clamp(
          arrival_rngs_[node].LogNormal(config_.util_median, config_.util_sigma),
          config_.util_min, config_.util_max));
    }
    bed.SetBackgroundFlows(config_.flow_count, config_.flow_skew);
  }
  bed.StartBackgroundBurstyLoadPerCpu(utils, config_.pkt_bytes);
  if (config_.spawn_monitors) {
    bed.SpawnBackgroundCp();
  }
  if (config_.vm_arrivals && NodeVmRate(node) > 0) {
    ScheduleArrival(node);
  }
}

void LoadGen::ScheduleArrival(size_t node) {
  exp::Testbed& bed = cluster_->node(node);
  const sim::Duration gap = arrival_rngs_[node].ExpDuration(
      static_cast<sim::Duration>(1e9 / NodeVmRate(node)));
  // One repeating event per node for the whole run; each arrival re-keys it
  // with the next exponential gap instead of building a fresh closure. The
  // RNG draw stays *after* StartVm, matching the draw order (and therefore
  // the byte-exact trajectory) of the schedule-per-arrival pattern this
  // replaces.
  arrival_events_[node] = bed.sim().ScheduleRepeating(gap, gap, [this, node] {
    exp::Testbed& b = cluster_->node(node);
    // cp_task_cpus() is read at arrival time: workflows started after a
    // rollout wave land on the vCPUs, earlier ones stay where they began.
    b.device_manager().StartVm(b.cp_task_cpus());
    // The effective rate (global rate x per-node share) is re-read per
    // arrival so set_vm_rate and MigrateVmShare take effect on the next gap.
    // A rate dropped to <= 0 parks the event; ReArmArrivals restarts it.
    if (NodeVmRate(node) <= 0) {
      b.sim().Cancel(arrival_events_[node]);
      arrival_events_[node] = sim::kInvalidEventId;
      return;
    }
    const sim::Duration next = arrival_rngs_[node].ExpDuration(
        static_cast<sim::Duration>(1e9 / NodeVmRate(node)));
    b.sim().Reschedule(arrival_events_[node], next);
  });
}

void LoadGen::ReArmArrivals(size_t node) {
  if (!running_ || !config_.vm_arrivals || node >= arrival_events_.size()) {
    return;
  }
  if (!cluster_->alive(node) || arrival_events_[node] != sim::kInvalidEventId) {
    return;  // Dead nodes re-arm via OnNodeRestart; live streams keep going.
  }
  if (NodeVmRate(node) > 0) {
    ScheduleArrival(node);
  }
}

void LoadGen::set_vm_rate(double per_sec) {
  const bool raised = per_sec > config_.vm_arrival_rate_per_sec;
  config_.vm_arrival_rate_per_sec = per_sec;
  if (raised) {
    for (size_t i = 0; i < cluster_->size(); ++i) {
      ReArmArrivals(i);
    }
  }
}

double LoadGen::VmShare(size_t node) const {
  return node < vm_scale_.size() ? vm_scale_[node] : 1.0;
}

bool LoadGen::MigrateVmShare(size_t from, size_t to, double units) {
  if (from >= vm_scale_.size() || to >= vm_scale_.size() || from == to || units <= 0) {
    return false;
  }
  if (vm_scale_[from] + 1e-9 < units) {
    return false;  // Cannot move more share than the node holds.
  }
  vm_scale_[from] -= units;
  vm_scale_[to] += units;
  if (running_) {
    // The donor parks itself at its next arrival if its share hit zero; the
    // recipient may have been parked at zero share and needs a fresh stream.
    ReArmArrivals(to);
  }
  return true;
}

void LoadGen::Stop() {
  if (!running_) {
    return;
  }
  running_ = false;
  for (size_t i = 0; i < cluster_->size(); ++i) {
    if (!cluster_->alive(i)) {
      continue;  // Its sources and arrival event died with the Testbed.
    }
    cluster_->node(i).StopBackgroundLoad();
    if (i < arrival_events_.size() && arrival_events_[i] != sim::kInvalidEventId) {
      cluster_->node(i).sim().Cancel(arrival_events_[i]);
      arrival_events_[i] = sim::kInvalidEventId;
    }
  }
}

void LoadGen::Start(Cluster& cluster) {
  assert(&cluster == cluster_ && "LoadGen is bound to one cluster");
  (void)cluster;
  Start();
}

void LoadGen::Stop(Cluster& cluster) {
  assert(&cluster == cluster_ && "LoadGen is bound to one cluster");
  (void)cluster;
  Stop();
}

void LoadGen::OnNodeCrash(Cluster&, size_t node) {
  if (node < arrival_events_.size()) {
    arrival_events_[node] = sim::kInvalidEventId;
  }
}

void LoadGen::OnNodeRestart(Cluster&, size_t node) {
  if (!running_) {
    return;
  }
  StartNode(node);
}

}  // namespace taichi::fleet
