#include "src/hw/accelerator.h"

#include <algorithm>
#include <cassert>

namespace taichi::hw {

uint32_t Accelerator::AddQueue(uint32_t dest_cpu) {
  Queue q;
  q.dest_cpu = dest_cpu;
  q.ring = std::make_unique<DescriptorRing>(config_.ring_capacity);
  queues_.push_back(std::move(q));
  uint32_t id = static_cast<uint32_t>(queues_.size() - 1);
  if (tracer_ != nullptr) {
    tracer_->SetTrackName(obs::kAccelTrackBase + static_cast<int32_t>(id),
                          "accel q" + std::to_string(id));
  }
  return id;
}

void Accelerator::set_tracer(obs::TraceRecorder* tracer) {
  tracer_ = tracer;
  if (tracer_ == nullptr) {
    return;
  }
  for (size_t q = 0; q < queues_.size(); ++q) {
    tracer_->SetTrackName(obs::kAccelTrackBase + static_cast<int32_t>(q),
                          "accel q" + std::to_string(q));
  }
}

void Accelerator::RegisterMetrics(obs::MetricsRegistry& registry,
                                  const std::string& prefix) const {
  registry.AddCounter(prefix + ".ingressed", &ingressed_);
  registry.AddCounter(prefix + ".published", &published_);
  registry.AddCounterFn(prefix + ".ring_drops", [this] { return ring_drops(); });
  registry.AddCounter(prefix + ".pool_drops", &pool_drops_);
  registry.AddSummary(prefix + ".residency_us", &residency_us_);
}

void Accelerator::Stall(sim::Duration duration) {
  if (duration <= 0) {
    return;
  }
  ++stalls_;
  const sim::SimTime resume = sim_->Now() + duration;
  for (Queue& q : queues_) {
    q.next_free = std::max(q.next_free, resume);
  }
}

void Accelerator::Ingress(uint32_t queue, const IoPacket& pkt) {
  assert(pool_ != nullptr && "Accelerator::Ingress requires a PacketPool");
  const sim::PacketHandle h = pool_->Alloc(pkt);
  if (h == sim::kInvalidPacketHandle) {
    // Arena exhausted: the NIC has nowhere to put the payload, so the
    // arrival is shed before it enters the pipeline — still offered load.
    CountPoolDrop();
    return;
  }
  IngressHandle(queue, h);
}

void Accelerator::IngressHandle(uint32_t queue, sim::PacketHandle h) {
  assert(queue < queues_.size());
  Queue& q = queues_[queue];
  const IoPacket& pkt = pool_->Get(h);
  ingressed_.Inc();
  if (flow_monitor_ != nullptr) {
    flow_monitor_->OnPacket(pkt.flow_key, pkt.size_bytes);
  }

  // Step 1 of the probe (Fig. 10): before preprocessing starts, look up the
  // destination CPU's state and raise the preemption IRQ if it is V-state.
  if (probe_ != nullptr) {
    probe_->OnPacketArrival(q.dest_cpu);
  }

  const sim::SimTime now = sim_->Now();
  const sim::SimTime start = std::max(now, q.next_free);
  q.next_free = start + config_.per_packet_gap;
  ++q.in_flight;
  const sim::SimTime publish =
      start + config_.preprocess_latency + config_.transfer_latency;
  if (tracer_ != nullptr) {
    // The pipeline is deterministic, so both stage spans can be emitted now
    // (trace timestamps may lie in the simulated future).
    const int32_t track = obs::kAccelTrackBase + static_cast<int32_t>(queue);
    tracer_->Complete(start, config_.preprocess_latency, track, obs::TraceCategory::kAccel,
                      "preprocess", pkt.id, q.dest_cpu);
    tracer_->Complete(start + config_.preprocess_latency, config_.transfer_latency, track,
                      obs::TraceCategory::kAccel, "transfer", pkt.id, q.dest_cpu);
  }

  sim_->At(publish, [this, queue, h, now] {
    Queue& dst = queues_[queue];
    --dst.in_flight;
    IoPacket& slot = pool_->Get(h);
    slot.ring_push = sim_->Now();
    residency_us_.Add(sim::ToMicros(slot.ring_push - now));
    if (dst.ring->Push(h)) {
      published_.Inc();
    } else {
      pool_->Free(h);  // Ring overflow: the descriptor is gone, reclaim the slot.
    }
    // Re-check the CPU state at publish: the destination CPU may have been
    // yielded to a vCPU while this packet sat in the preprocessing pipeline,
    // in which case the ingress-time check saw P-state and raised nothing.
    if (probe_ != nullptr) {
      probe_->OnPacketArrival(dst.dest_cpu);
    }
  });
}

uint64_t Accelerator::ring_drops() const {
  uint64_t drops = 0;
  for (const auto& q : queues_) {
    drops += q.ring->drops();
  }
  return drops;
}

}  // namespace taichi::hw
