#include "perfbench/microloops.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <vector>

#include "src/dp/poll_service.h"
#include "src/hw/accelerator.h"
#include "src/hw/machine.h"
#include "src/os/behaviors.h"
#include "src/os/kernel.h"
#include "src/sim/event_queue.h"
#include "src/sim/packet_pool.h"
#include "src/sim/random.h"
#include "src/sim/simulation.h"
#include "src/sim/stats.h"

namespace perfbench {
namespace {

using namespace taichi;
using Clock = std::chrono::steady_clock;

constexpr int kRepetitions = 5;

// Keeps each loop's result observable so the timed work cannot be elided.
volatile uint64_t g_sink = 0;

double NsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

template <typename Fn>
double MedianOfRepetitions(Fn&& once) {
  std::vector<double> ns;
  for (int i = 0; i < kRepetitions; ++i) {
    ns.push_back(once());
  }
  std::sort(ns.begin(), ns.end());
  return ns[ns.size() / 2];
}

}  // namespace

double SchedulePopNs(size_t depth) {
  constexpr size_t kOps = size_t{1} << 20;
  constexpr size_t kGaps = 4096;
  depth = std::max<size_t>(depth, 1);
  // Gaps spread the standing events over ~1 ms, as a node's timers are.
  sim::Rng rng(1);
  std::vector<sim::Duration> gaps(kGaps);
  for (sim::Duration& g : gaps) {
    g = 1 + static_cast<sim::Duration>(rng.UniformInt(0, 1000000));
  }
  return MedianOfRepetitions([&] {
    sim::EventQueue queue;
    uint64_t fired = 0;
    for (size_t i = 0; i < depth; ++i) {
      queue.Schedule(gaps[i % kGaps], [&fired] { ++fired; });
    }
    const Clock::time_point t0 = Clock::now();
    for (size_t k = 0; k < kOps; ++k) {
      sim::EventQueue::Fired f = queue.PopNext();
      f.fn();
      queue.Schedule(f.when + gaps[k % kGaps], [&fired] { ++fired; });
    }
    const double ns = NsSince(t0);
    g_sink = fired + queue.size();
    return ns / static_cast<double>(kOps);
  });
}

double ContextSwitchNs() {
  return MedianOfRepetitions([] {
    sim::Simulation sim;
    hw::MachineConfig mcfg;
    mcfg.num_cpus = 1;
    hw::Machine machine(&sim, mcfg);
    os::Kernel kernel(&sim, &machine, os::KernelConfig{});
    for (int i = 0; i < 2; ++i) {
      kernel.Spawn("yielder",
                   std::make_unique<os::LoopBehavior>(std::vector<os::Action>{
                       os::Action::Compute(sim::Micros(1)), os::Action::Yield()}),
                   os::CpuSet::Of({0}));
    }
    sim.RunFor(sim::Millis(1));
    const uint64_t switches0 = kernel.context_switches();
    const Clock::time_point t0 = Clock::now();
    sim.RunFor(sim::Millis(100));
    const double ns = NsSince(t0);
    return ns / static_cast<double>(std::max<uint64_t>(1, kernel.context_switches() - switches0));
  });
}

double IngressNs() {
  constexpr int kBursts = 20000;
  constexpr size_t kBurst = 32;
  return MedianOfRepetitions([] {
    sim::Simulation sim;
    sim::PacketPool pool(4096);
    hw::Accelerator accel(&sim, hw::AcceleratorConfig{});
    accel.set_pool(&pool);
    const uint32_t queue = accel.AddQueue(0);
    hw::IoPacket pkt;
    sim::PacketHandle out[kBurst];
    uint64_t drained = 0;
    const Clock::time_point t0 = Clock::now();
    for (int b = 0; b < kBursts; ++b) {
      for (size_t i = 0; i < kBurst; ++i) {
        pkt.id = drained + i;
        pkt.flow = i;
        accel.Ingress(queue, pkt);
      }
      // 32 packets 120 ns apart plus the 3.2 us pipeline: all published.
      sim.RunFor(sim::Micros(8));
      const size_t n = accel.ring(queue).PopBurst(kBurst, out);
      for (size_t i = 0; i < n; ++i) {
        pool.Free(out[i]);
      }
      drained += n;
    }
    const double ns = NsSince(t0);
    g_sink = drained;
    return ns / static_cast<double>(std::max<uint64_t>(1, drained));
  });
}

double BurstNsPerPacket(uint32_t packet_bytes) {
  constexpr int kBursts = 20000;
  constexpr size_t kBurst = 32;
  return MedianOfRepetitions([packet_bytes] {
    sim::Simulation sim;
    hw::MachineConfig mcfg;
    mcfg.num_cpus = 1;
    hw::Machine machine(&sim, mcfg);
    os::Kernel kernel(&sim, &machine, os::KernelConfig{});
    hw::Accelerator& accel = machine.accelerator();
    const uint32_t queue = accel.AddQueue(0);
    dp::PollService service(0, dp::PollServiceConfig{}, dp::YieldPolicy::kBusyPoll);
    sim::PacketPool* pool = &machine.pool();
    service.set_pool(pool);
    service.AttachRing(&accel.ring(queue));
    uint64_t delivered = 0;
    uint64_t target = 0;
    service.set_sink([pool, &sim, &delivered, &target](const sim::PacketHandle* batch,
                                                       size_t count, sim::SimTime) {
      for (size_t i = 0; i < count; ++i) {
        pool->Free(batch[i]);
      }
      delivered += count;
      if (delivered >= target) {
        sim.Stop();
      }
    });
    os::Task* task = kernel.Spawn("dp", std::make_unique<os::BehaviorRef>(&service),
                                  os::CpuSet::Of({0}), os::Priority::kHigh);
    service.BindTask(&kernel, task);
    sim.RunFor(sim::Micros(10));  // The service is up and polling an empty ring.

    hw::IoPacket pkt;
    pkt.size_bytes = packet_bytes;
    const Clock::time_point t0 = Clock::now();
    for (int b = 0; b < kBursts; ++b) {
      pkt.created = sim.Now();
      pkt.ring_push = sim.Now();
      for (size_t i = 0; i < kBurst; ++i) {
        pkt.id = target + i;
        accel.ring(queue).Push(pool->Alloc(pkt));
      }
      target += kBurst;
      while (delivered < target) {
        sim.RunFor(sim::Micros(100));
      }
    }
    const double ns = NsSince(t0);
    g_sink = delivered;
    return ns / static_cast<double>(delivered);
  });
}

double FlowUpdateNs(const obs::FlowMonitorConfig& config, size_t flows) {
  constexpr size_t kStream = size_t{1} << 16;
  constexpr size_t kUpdates = size_t{1} << 22;
  // The load generators' Zipf-like skew over the flow population.
  constexpr double kSkew = 1.3;
  flows = std::max<size_t>(flows, 1);
  std::vector<double> cdf(flows);
  double total = 0;
  for (size_t r = 0; r < flows; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), kSkew);
    cdf[r] = total;
  }
  sim::Rng rng(7);
  std::vector<obs::FlowKey> stream(kStream);
  for (obs::FlowKey& key : stream) {
    const double u = rng.NextDouble() * total;
    const size_t rank = std::min<size_t>(
        flows - 1, static_cast<size_t>(std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin()));
    key.src_ip = 0x0a000000u + static_cast<uint32_t>(rank);
    key.dst_ip = 0x0a800001u;
    key.src_port = static_cast<uint16_t>(1024 + (rank * 7919) % 60000);
    key.dst_port = 443;
    key.proto = obs::kProtoTcp;
  }
  return MedianOfRepetitions([&] {
    obs::FlowMonitor monitor(config);
    const Clock::time_point t0 = Clock::now();
    for (size_t i = 0; i < kUpdates; ++i) {
      monitor.OnPacket(stream[i % kStream], 512);
    }
    const double ns = NsSince(t0);
    g_sink = monitor.total_packets();
    return ns / static_cast<double>(kUpdates);
  });
}

double SummaryAddNs() {
  constexpr size_t kAdds = size_t{1} << 21;
  constexpr size_t kValues = 4096;
  sim::Rng rng(3);
  std::vector<double> values(kValues);
  for (double& v : values) {
    v = rng.Exponential(20.0);
  }
  return MedianOfRepetitions([&] {
    sim::Summary summary;
    const Clock::time_point t0 = Clock::now();
    for (size_t i = 0; i < kAdds; ++i) {
      summary.Add(values[i % kValues]);
    }
    const double ns = NsSince(t0);
    g_sink = summary.count();
    return ns / static_cast<double>(kAdds);
  });
}

}  // namespace perfbench
