#include "src/scenario/generators.h"

#include <algorithm>
#include <cmath>

#include "src/fleet/cluster.h"
#include "src/sim/logging.h"

namespace taichi::scenario {

// --- Fig3Source --------------------------------------------------------------

void Fig3Source::Start(fleet::Cluster& cluster) {
  if (gen_ != nullptr) {
    TAICHI_ERROR(cluster.Now(), "%s: Start called twice", name());
    return;
  }
  gen_ = std::make_unique<fleet::LoadGen>(&cluster, load_);
  gen_->Start();
  AfterStart(cluster);
}

void Fig3Source::Stop(fleet::Cluster& cluster) {
  if (gen_ == nullptr) {
    return;
  }
  BeforeStop(cluster);
  if (hook_id_ != 0) {
    cluster.RemoveEpochHook(hook_id_);
    hook_id_ = 0;
  }
  gen_->Stop();
}

void Fig3Source::AddEpochHook(fleet::Cluster& cluster, fleet::Cluster::EpochHook hook) {
  hook_id_ = cluster.AddEpochHook(std::move(hook));
}

void Fig3Source::OnNodeCrash(fleet::Cluster& cluster, size_t node) {
  if (gen_ == nullptr) {
    return;
  }
  gen_->OnNodeCrash(cluster, node);
  AfterCrash(cluster, node);
}

void Fig3Source::OnNodeRestart(fleet::Cluster& cluster, size_t node) {
  if (gen_ == nullptr) {
    return;
  }
  gen_->OnNodeRestart(cluster, node);
  AfterRestart(cluster, node);
}

// --- DiurnalSource -----------------------------------------------------------

void DiurnalSource::AfterStart(fleet::Cluster& cluster) {
  day_zero_ = cluster.Now();
  fleet::Cluster* cl = &cluster;
  AddEpochHook(cluster, [this, cl](sim::SimTime now) { Modulate(*cl, now); });
  Modulate(cluster, cluster.Now());
}

void DiurnalSource::Modulate(fleet::Cluster& cluster, sim::SimTime now) {
  const double mid = 0.5 * (config_.peak + config_.trough);
  const double amp = 0.5 * (config_.peak - config_.trough);
  const double t = static_cast<double>(now - day_zero_) /
                   static_cast<double>(std::max<sim::Duration>(1, config_.period));
  // The day starts at the midpoint heading into the peak.
  factor_ = mid + amp * std::sin(2.0 * 3.14159265358979323846 * t);
  gen().set_vm_rate(config_.load.vm_arrival_rate_per_sec * factor_);
  for (size_t i = 0; i < cluster.size(); ++i) {
    if (cluster.alive(i)) {
      cluster.node(i).ScaleBackgroundLoad(factor_);
    }
  }
}

void DiurnalSource::AfterRestart(fleet::Cluster& cluster, size_t node) {
  // The fresh node rejoins the day at the current point of the curve.
  cluster.node(node).ScaleBackgroundLoad(factor_);
}

// --- IncastSource ------------------------------------------------------------

void IncastSource::Build(fleet::Cluster& cluster) {
  exp::Testbed& bed = cluster.node(static_cast<size_t>(config_.victim));
  const size_t queues = bed.machine().accelerator().queue_count();
  senders_.clear();
  senders_.reserve(static_cast<size_t>(config_.fan_in));
  for (int i = 0; i < config_.fan_in; ++i) {
    dp::OpenLoopConfig ocfg;
    ocfg.rate_pps = config_.per_sender_pps;
    ocfg.size_bytes = config_.size_bytes;
    // Synchronized senders: constant-rate, all switched on at the same
    // instant — the burst is the synchronization, not the process.
    ocfg.process = dp::OpenLoopConfig::Process::kConstant;
    ocfg.kind = hw::IoKind::kNetRx;
    ocfg.flow = config_.flow_base + static_cast<uint64_t>(i);
    ocfg.user_tag = exp::Testbed::Tag(kIncastOwner, static_cast<uint64_t>(i));
    const uint32_t queue = static_cast<uint32_t>(i % std::max<size_t>(1, queues));
    senders_.push_back(std::make_unique<dp::OpenLoopSource>(
        &bed.sim(), &bed.machine().accelerator(), queue, ocfg,
        config_.load.seed ^ (0x10ca0000ULL + static_cast<uint64_t>(i))));
  }
  armed_ = true;
}

void IncastSource::ScheduleBurst(fleet::Cluster& cluster, sim::Duration delay) {
  exp::Testbed& bed = cluster.node(static_cast<size_t>(config_.victim));
  fleet::Cluster* cl = &cluster;
  bed.sim().At(bed.sim().Now() + std::max<sim::Duration>(1, delay),
               [this, cl] { BurstOn(*cl); });
}

void IncastSource::BurstOn(fleet::Cluster& cluster) {
  if (!armed_) {
    return;
  }
  for (auto& src : senders_) {
    src->Start();
  }
  exp::Testbed& bed = cluster.node(static_cast<size_t>(config_.victim));
  fleet::Cluster* cl = &cluster;
  bed.sim().At(bed.sim().Now() + std::max<sim::Duration>(1, config_.burst),
               [this, cl] { BurstOff(*cl); });
}

void IncastSource::BurstOff(fleet::Cluster& cluster) {
  if (!armed_) {
    return;
  }
  for (auto& src : senders_) {
    src->Stop();
  }
  ScheduleBurst(cluster, config_.period > config_.burst ? config_.period - config_.burst
                                                        : sim::Millis(1));
}

void IncastSource::AfterStart(fleet::Cluster& cluster) {
  const size_t victim = static_cast<size_t>(config_.victim);
  if (config_.victim < 0 || victim >= cluster.size()) {
    TAICHI_ERROR(cluster.Now(), "incast: victim %d is not a node", config_.victim);
    return;
  }
  Build(cluster);
  ScheduleBurst(cluster, config_.start_after);
}

void IncastSource::BeforeStop(fleet::Cluster& cluster) {
  armed_ = false;
  const size_t victim = static_cast<size_t>(config_.victim);
  if (victim < cluster.size() && cluster.alive(victim)) {
    for (auto& src : senders_) {
      src->Stop();
    }
  }
}

void IncastSource::AfterCrash(fleet::Cluster&, size_t node) {
  if (node == static_cast<size_t>(config_.victim)) {
    // Sender objects hold pointers into the dying Testbed; the burst events
    // die with its simulation.
    armed_ = false;
    senders_.clear();
  }
}

void IncastSource::AfterRestart(fleet::Cluster& cluster, size_t node) {
  if (node == static_cast<size_t>(config_.victim)) {
    Build(cluster);
    ScheduleBurst(cluster, config_.start_after);
  }
}

// --- DdosSource --------------------------------------------------------------

bool DdosSource::IsTarget(size_t node) const {
  for (int t : config_.targets) {
    if (t >= 0 && static_cast<size_t>(t) == node) {
      return true;
    }
  }
  return false;
}

void DdosSource::ArmNode(fleet::Cluster& cluster, size_t node, sim::Duration delay) {
  exp::Testbed& bed = cluster.node(node);
  const size_t queues = bed.machine().accelerator().queue_count();
  const double rate = bed.RateForUtilization(config_.utilization, config_.size_bytes);
  auto& sources = per_node_[node];
  sources.clear();
  for (size_t q = 0; q < queues; ++q) {
    dp::OpenLoopConfig ocfg;
    ocfg.rate_pps = rate;
    ocfg.size_bytes = config_.size_bytes;
    // Floods are relentless, not bursty: constant inter-arrival, which also
    // means the flood consumes no Rng state anywhere.
    ocfg.process = dp::OpenLoopConfig::Process::kConstant;
    ocfg.kind = hw::IoKind::kNetRx;
    ocfg.flow = config_.flow_base;  // One victim endpoint across all queues.
    ocfg.attack_sources = config_.attackers;
    ocfg.user_tag = exp::Testbed::Tag(kAttackOwner, static_cast<uint64_t>(q));
    sources.push_back(std::make_unique<dp::OpenLoopSource>(
        &bed.sim(), &bed.machine().accelerator(), static_cast<uint32_t>(q), ocfg,
        config_.load.seed ^ (0xdd050000ULL + node * 131 + q)));
  }
  // The switch-on runs inside the victim's simulation.
  std::vector<dp::OpenLoopSource*> raw;
  raw.reserve(sources.size());
  for (auto& src : sources) {
    raw.push_back(src.get());
  }
  bed.sim().At(bed.sim().Now() + std::max<sim::Duration>(1, delay), [raw] {
    for (dp::OpenLoopSource* src : raw) {
      src->Start();
    }
  });
}

void DdosSource::AfterStart(fleet::Cluster& cluster) {
  per_node_.clear();
  per_node_.resize(cluster.size());
  for (int t : config_.targets) {
    if (t < 0 || static_cast<size_t>(t) >= cluster.size()) {
      TAICHI_ERROR(cluster.Now(), "ddos: target %d is not a node", t);
      continue;
    }
    if (cluster.alive(static_cast<size_t>(t))) {
      ArmNode(cluster, static_cast<size_t>(t), config_.start_after);
    }
  }
}

void DdosSource::BeforeStop(fleet::Cluster& cluster) {
  for (size_t i = 0; i < per_node_.size(); ++i) {
    if (!cluster.alive(i)) {
      continue;
    }
    for (auto& src : per_node_[i]) {
      src->Stop();
    }
  }
}

void DdosSource::AfterCrash(fleet::Cluster&, size_t node) {
  if (node < per_node_.size()) {
    per_node_[node].clear();
  }
}

void DdosSource::AfterRestart(fleet::Cluster& cluster, size_t node) {
  if (IsTarget(node)) {
    // The attacker does not care that the victim rebooted.
    ArmNode(cluster, node, config_.start_after);
  }
}

// --- SurgeSource -------------------------------------------------------------

void SurgeSource::AfterStart(fleet::Cluster& cluster) {
  applied_ = 1.0;
  AddEpochHook(cluster, [this](sim::SimTime now) { Modulate(now); });
}

void SurgeSource::Modulate(sim::SimTime now) {
  const double f =
      (now >= config_.start && now < config_.start + config_.duration) ? config_.factor : 1.0;
  if (f != applied_) {
    applied_ = f;
    gen().set_vm_rate(config_.load.vm_arrival_rate_per_sec * f);
  }
}

}  // namespace taichi::scenario
