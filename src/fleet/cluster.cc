#include "src/fleet/cluster.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "src/sim/logging.h"
#include "src/sim/random.h"

namespace taichi::fleet {

Cluster::Cluster(ClusterConfig config) : config_(std::move(config)) {
  if (config_.num_nodes <= 0) {
    TAICHI_ERROR(0, "fleet: cluster with %d nodes is invalid, clamping to 1",
                 config_.num_nodes);
    config_.num_nodes = 1;
  }
  if (config_.epoch <= 0) {
    TAICHI_ERROR(0, "fleet: epoch must be positive, defaulting to 5 ms");
    config_.epoch = sim::Millis(5);
  }
  if (config_.threads < 1) {
    TAICHI_ERROR(0, "fleet: %d threads is invalid, running serial", config_.threads);
    config_.threads = 1;
  }
  // More threads than nodes would only idle; the clamp also keeps the
  // serial/parallel split below an exact num_nodes partition.
  config_.threads = std::min(config_.threads, config_.num_nodes);
  if (config_.threads > 1) {
    pool_ = std::make_unique<sim::ThreadPool>(config_.threads);
  }
  // Per-node seeds come from one sequential stream, so node i gets the same
  // seed regardless of how many nodes follow it — a 4-node cluster is a
  // prefix of the 12-node cluster with the same fleet seed.
  sim::Rng seeder(config_.seed);
  nodes_.reserve(static_cast<size_t>(config_.num_nodes));
  for (int i = 0; i < config_.num_nodes; ++i) {
    auto node = std::make_unique<Node>(config_.trace_capacity);
    char name[16];
    std::snprintf(name, sizeof(name), "node%02d", i);
    node->name = name;

    exp::TestbedConfig cfg = config_.node;
    if (config_.tweak) {
      config_.tweak(i, cfg);
    }
    node->seed = seeder.Next();
    cfg.seed = node->seed;
    node->bed = std::make_unique<exp::Testbed>(std::move(cfg));
    node->obs.trace.set_enabled(config_.enable_trace);
    node->bed->AttachObservability(&node->obs);
    nodes_.push_back(std::move(node));
  }
  // Testbed construction settles each node at the same boot offset; the
  // fleet clock starts there so the first epoch has normal length.
  now_ = nodes_.front()->bed->sim().Now();
}

void Cluster::StepNode(size_t i, sim::SimTime next) {
  // Crashed nodes have no Testbed to step; their slot just idles until a
  // restart. The skip is the same branch on every thread count.
  exp::Testbed* bed = nodes_[i]->bed.get();
  if (bed == nullptr) {
    return;
  }
  sim::Simulation& sim = bed->sim();
  sim.RunUntil(next);
  // The epoch boundary is each node's natural quiesce point: give back
  // event-pool memory still held from a burst (e.g. a VM-startup storm).
  // Cheap no-op unless pending ≪ capacity; runs on the node's own worker,
  // so the queue is only ever touched by its owner.
  sim.ShrinkEventPool();
}

void Cluster::RunUntil(sim::SimTime deadline) {
  while (now_ < deadline) {
    const sim::SimTime next = now_ + config_.epoch < deadline ? now_ + config_.epoch : deadline;
    // Nodes are independent inside an epoch (each event touches only its own
    // Testbed), so they can step concurrently. ParallelFor is a barrier:
    // every node reaches `next` before any hook observes the fleet, exactly
    // as in the serial loop — same outputs, byte for byte. Nodes are grouped
    // into contiguous shards (several per worker, so one hot node doesn't
    // serialize its whole stripe behind it) claimed off the pool's
    // per-worker cursors.
    if (pool_) {
      // Enough shards that stealing can rebalance around hot nodes, few
      // enough that per-shard overhead stays invisible at 10k nodes.
      constexpr size_t kShardsPerWorker = 8;
      const size_t n = nodes_.size();
      const size_t shards =
          std::min(n, static_cast<size_t>(config_.threads) * kShardsPerWorker);
      pool_->ParallelFor(shards, [this, next, n, shards](size_t s) {
        const size_t begin = s * n / shards;
        const size_t end = (s + 1) * n / shards;
        for (size_t i = begin; i < end; ++i) {
          StepNode(i, next);
        }
      });
    } else {
      for (size_t i = 0; i < nodes_.size(); ++i) {
        StepNode(i, next);
      }
    }
    now_ = next;
    // Hooks may add or remove hooks (a rollout deregisters itself when it
    // finishes), so fire against a snapshot of the current ids.
    std::vector<uint64_t> ids;
    ids.reserve(hooks_.size());
    for (const auto& [id, hook] : hooks_) {
      (void)hook;
      ids.push_back(id);
    }
    for (uint64_t id : ids) {
      auto it = hooks_.find(id);
      if (it != hooks_.end()) {
        it->second(now_);
      }
    }
  }
}

size_t Cluster::alive_count() const {
  size_t n = 0;
  for (const auto& node : nodes_) {
    n += node->bed != nullptr ? 1 : 0;
  }
  return n;
}

void Cluster::CrashNode(size_t i) {
  Node& node = *nodes_[i];
  if (node.bed == nullptr) {
    TAICHI_ERROR(now_, "fleet: CrashNode(%s) but the node is already down",
                 node.name.c_str());
    return;
  }
  // Power loss: the Testbed and everything inside it (events, tasks, vCPUs,
  // in-flight packets, sketches) is gone. The host-side Observability is the
  // flight recorder and stays — but every registered metric pointer aims into
  // the freed Testbed, so the registry drops all registrations.
  node.bed.reset();
  node.obs.metrics.Clear();
}

exp::Testbed* Cluster::RestartNode(size_t i) {
  Node& node = *nodes_[i];
  if (node.bed != nullptr) {
    TAICHI_ERROR(now_, "fleet: RestartNode(%s) but the node is already up",
                 node.name.c_str());
    return node.bed.get();
  }
  ++node.incarnation;
  exp::TestbedConfig cfg = config_.node;
  if (config_.tweak) {
    config_.tweak(static_cast<int>(i), cfg);
  }
  // A reboot is a fresh random universe, deterministically derived from the
  // node's first-boot seed and which life this is.
  cfg.seed = node.seed ^ (0x9e3779b97f4a7c15ULL * node.incarnation);
  node.bed = std::make_unique<exp::Testbed>(std::move(cfg));
  // Boot settles off-camera: catch the fresh sim up to the fleet clock
  // before re-attaching observability, so the merged trace and metric
  // snapshots never see events behind Now(). The node lands exactly on the
  // epoch boundary, same as every live node.
  node.bed->sim().RunUntil(now_);
  node.obs.trace.set_enabled(config_.enable_trace);
  node.bed->AttachObservability(&node.obs);
  return node.bed.get();
}

uint64_t Cluster::AddEpochHook(EpochHook hook) {
  const uint64_t id = next_hook_id_++;
  hooks_.emplace(id, std::move(hook));
  return id;
}

void Cluster::RemoveEpochHook(uint64_t id) { hooks_.erase(id); }

sim::Summary Cluster::MergeSummaryMetric(const std::string& metric) const {
  std::vector<const sim::Summary*> parts;
  parts.reserve(nodes_.size());
  for (const auto& node : nodes_) {
    parts.push_back(node->obs.metrics.FindSummary(metric));
  }
  return obs::MergeSummaries(parts);
}

obs::FlowMonitor Cluster::MergedFlowMonitor(FlowTap tap) const {
  obs::FlowMonitor fleet(config_.node.flow_monitor);
  for (const auto& node : nodes_) {
    if (node->bed == nullptr) {
      continue;  // A crashed node's sketches died with its DRAM.
    }
    const exp::Testbed& bed = *node->bed;
    switch (tap) {
      case FlowTap::kRx:
        fleet.Merge(bed.flow_rx());
        break;
      case FlowTap::kDp:
        fleet.Merge(bed.flow_dp());
        break;
      case FlowTap::kTx:
        fleet.Merge(bed.flow_tx());
        break;
    }
  }
  return fleet;
}

std::string Cluster::MergedTraceJson() const {
  std::vector<obs::TraceProcess> processes;
  processes.reserve(nodes_.size());
  for (const auto& node : nodes_) {
    processes.push_back({node->name, &node->obs.trace});
  }
  return obs::MergedChromeJson(processes);
}

bool Cluster::WriteMergedTrace(const std::string& path) const {
  std::vector<obs::TraceProcess> processes;
  processes.reserve(nodes_.size());
  for (const auto& node : nodes_) {
    processes.push_back({node->name, &node->obs.trace});
  }
  return obs::WriteMergedChromeJson(processes, path);
}

}  // namespace taichi::fleet
