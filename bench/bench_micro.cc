// Microbenchmarks (google-benchmark) of the framework's hot primitives:
// event-queue operations, RNG draws, IPI routing, context switches and the
// full pCPU<->vCPU switch cycle. These measure simulator wall-clock cost —
// useful for keeping the large experiments fast — and document the modeled
// costs of each path in simulated time.
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "bench/common.h"
#include "src/dp/poll_service.h"
#include "src/exp/testbed.h"
#include "src/os/behaviors.h"
#include "src/sim/event_queue.h"
#include "src/sim/packet_pool.h"
#include "src/sim/random.h"

// Global allocation counter: the schedule/fire hot loop below asserts that
// the steady-state event path performs ZERO heap allocations. Before the
// InlineCallback rework, every scheduled closure whose capture exceeded
// libstdc++'s 16-byte std::function SBO cost one malloc per event — exactly
// 1.0 allocations/event on this loop.
static std::atomic<uint64_t> g_allocs{0};

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

using namespace taichi;

static void BM_EventQueueSchedulePop(benchmark::State& state) {
  sim::EventQueue q;
  uint64_t t = 0;
  for (auto _ : state) {
    q.Schedule(++t, [] {});
    benchmark::DoNotOptimize(q.PopNext());
  }
}
BENCHMARK(BM_EventQueueSchedulePop);

static void BM_EventQueueCancel(benchmark::State& state) {
  sim::EventQueue q;
  uint64_t t = 0;
  for (auto _ : state) {
    sim::EventId id = q.Schedule(++t, [] {});
    benchmark::DoNotOptimize(q.Cancel(id));
  }
}
BENCHMARK(BM_EventQueueCancel);

// The idle-poll fast-forward pattern: a deep queue of standing timers that
// are constantly cancelled and rescheduled. The lazy-cancel design paid an
// O(log n) tombstone skim at every pop here; generation-tagged slots make
// Cancel O(1) against an arbitrary depth.
static void BM_EventQueueCancelRescheduleChurn(benchmark::State& state) {
  const size_t depth = static_cast<size_t>(state.range(0));
  sim::EventQueue q;
  std::vector<sim::EventId> ids;
  uint64_t t = 0;
  uint64_t lcg = 1;
  for (size_t i = 0; i < depth; ++i) {
    ids.push_back(q.Schedule(++t, [] {}));
  }
  for (auto _ : state) {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    sim::EventId& id = ids[lcg % depth];
    q.Cancel(id);
    id = q.Schedule(++t, [] {});
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_EventQueueCancelRescheduleChurn)->Arg(64)->Arg(1024)->Arg(16384);

// The post-rework hot path: a capture past std::function's 16-byte SBO but
// inside InlineCallback's inline buffer. With std::function this allocated
// every iteration; now it must not allocate at all.
static void BM_EventQueueScheduleFireInline(benchmark::State& state) {
  sim::EventQueue q;
  uint64_t t = 0;
  uint64_t acc = 0;
  uint64_t* sink = &acc;
  for (auto _ : state) {
    const uint64_t a = ++t;
    const uint64_t b = t ^ 0x9e3779b97f4a7c15ULL;
    q.Schedule(t, [sink, a, b] { *sink += a ^ b; });  // 24-byte capture.
    sim::EventQueue::Fired fired = q.PopNext();
    fired.fn();
  }
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_EventQueueScheduleFireInline);

// In-place re-key of a live timer against a standing queue — the
// slice-timer/idle-poll pattern that previously paid Cancel+Schedule
// (slot free + realloc + closure rebuild).
static void BM_EventQueueReschedule(benchmark::State& state) {
  const size_t depth = static_cast<size_t>(state.range(0));
  sim::EventQueue q;
  std::vector<sim::EventId> ids;
  uint64_t t = 0;
  uint64_t lcg = 1;
  for (size_t i = 0; i < depth; ++i) {
    ids.push_back(q.Schedule(++t, [] {}));
  }
  for (auto _ : state) {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    benchmark::DoNotOptimize(q.Reschedule(ids[lcg % depth], ++t));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_EventQueueReschedule)->Arg(64)->Arg(1024)->Arg(16384);

// A periodic tick driven by ScheduleRepeating: one slot, one closure for the
// lifetime of the timer, re-keyed at every pop.
static void BM_SimulationRepeatingTick(benchmark::State& state) {
  sim::Simulation sim;
  uint64_t ticks = 0;
  sim.ScheduleRepeating(sim::Micros(1), [&ticks] { ++ticks; });
  for (auto _ : state) {
    sim.RunFor(sim::Micros(100));
  }
  state.SetItemsProcessed(static_cast<int64_t>(ticks));
}
BENCHMARK(BM_SimulationRepeatingTick);

static void BM_EventQueueIsPending(benchmark::State& state) {
  sim::EventQueue q;
  sim::EventId live = q.Schedule(1, [] {});
  sim::EventId dead = q.Schedule(2, [] {});
  q.Cancel(dead);
  for (auto _ : state) {
    benchmark::DoNotOptimize(q.IsPending(live));
    benchmark::DoNotOptimize(q.IsPending(dead));
  }
}
BENCHMARK(BM_EventQueueIsPending);

// Pop throughput with a cold, deep heap — the 4-ary sift path.
static void BM_EventQueueDrain(benchmark::State& state) {
  const size_t depth = static_cast<size_t>(state.range(0));
  uint64_t lcg = 42;
  for (auto _ : state) {
    state.PauseTiming();
    sim::EventQueue q;
    for (size_t i = 0; i < depth; ++i) {
      lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
      q.Schedule(lcg % 100000, [] {});
    }
    state.ResumeTiming();
    while (!q.empty()) {
      benchmark::DoNotOptimize(q.PopNext());
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * depth));
}
BENCHMARK(BM_EventQueueDrain)->Arg(1024)->Arg(16384);

static void BM_RngDraw(benchmark::State& state) {
  sim::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.Exponential(100.0));
  }
}
BENCHMARK(BM_RngDraw);

static void BM_KernelContextSwitch(benchmark::State& state) {
  // Two yield-looping tasks on one CPU: each sim step is one task switch.
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
  for (auto _ : state) {
    sim.RunFor(sim::Micros(10));
  }
  state.SetItemsProcessed(static_cast<int64_t>(kernel.context_switches()));
}
BENCHMARK(BM_KernelContextSwitch);

static void BM_IpiRoundTrip(benchmark::State& state) {
  sim::Simulation sim;
  hw::MachineConfig mcfg;
  mcfg.num_cpus = 2;
  hw::Machine machine(&sim, mcfg);
  os::Kernel kernel(&sim, &machine, os::KernelConfig{});
  for (auto _ : state) {
    kernel.SendIpi(0, 1, os::IpiType::kResched);
    sim.RunFor(sim::Micros(1));
  }
  state.SetItemsProcessed(static_cast<int64_t>(kernel.ipis_sent()));
}
BENCHMARK(BM_IpiRoundTrip);

static void BM_GuestEnterExitCycle(benchmark::State& state) {
  sim::Simulation sim;
  hw::MachineConfig mcfg;
  mcfg.num_cpus = 2;
  hw::Machine machine(&sim, mcfg);
  os::Kernel kernel(&sim, &machine, os::KernelConfig{});
  os::CpuId vcpu = kernel.RegisterCpu(os::CpuKind::kVirtual, 100);
  kernel.OnlineCpu(vcpu);
  sim.RunFor(sim::Millis(1));
  kernel.Spawn("guest_work",
               std::make_unique<os::LoopBehavior>(std::vector<os::Action>{
                   os::Action::Compute(sim::Micros(100))}),
               os::CpuSet::Of({vcpu}));
  for (auto _ : state) {
    kernel.EnterGuest(0, vcpu);
    sim.RunFor(sim::Micros(10));
    if (kernel.guest_of(0) != os::kInvalidCpu) {
      kernel.ExitGuest(0, os::GuestExitReason::kForced);
    }
    sim.RunFor(sim::Micros(10));
  }
  state.SetItemsProcessed(static_cast<int64_t>(kernel.guest_entries()));
}
BENCHMARK(BM_GuestEnterExitCycle);

static void BM_AcceleratorIngress(benchmark::State& state) {
  sim::Simulation sim;
  sim::PacketPool pool(256);
  hw::Accelerator accel(&sim, {});
  accel.set_pool(&pool);
  uint32_t q = accel.AddQueue(0);
  hw::IoPacket pkt;
  uint64_t drained = 0;
  sim::PacketHandle out[32];
  for (auto _ : state) {
    accel.Ingress(q, pkt);
    sim.RunFor(sim::Micros(4));
    const size_t n = accel.ring(q).PopBurst(32, out);
    for (size_t i = 0; i < n; ++i) {
      pool.Free(out[i]);
    }
    drained += n;
  }
  benchmark::DoNotOptimize(drained);
}
BENCHMARK(BM_AcceleratorIngress);

static void BM_TestbedSecondOfTraffic(benchmark::State& state) {
  // Wall cost of simulating 1 ms of saturated baseline traffic.
  exp::TestbedConfig cfg;
  cfg.mode = exp::Mode::kBaseline;
  auto bed = std::make_unique<exp::Testbed>(cfg);
  bed->StartBackgroundLoad(1e6, 256, dp::OpenLoopConfig::Process::kPoisson);
  for (auto _ : state) {
    bed->sim().RunFor(sim::Millis(1));
  }
  state.SetItemsProcessed(static_cast<int64_t>(bed->sim().events_executed()));
}
BENCHMARK(BM_TestbedSecondOfTraffic);

namespace {

// One self-rescheduling timer chain with a capture shaped like the kernel's
// hot closures: `this` plus a couple of ids (24-32 bytes, past the libstdc++
// std::function SBO). Kept logic-identical to the pre-change baseline harness
// so before/after events/sec compare the same work.
struct Chain {
  sim::Simulation* sim = nullptr;
  uint64_t token = 0;
  uint64_t fires = 0;
  sim::Duration gap = 1;

  void Arm() {
    const uint64_t id = token;
    const uint64_t flow = fires;
    sim->Schedule(gap, [this, id, flow] {
      fires += 1 + ((id ^ flow) & 0);
      Arm();
    });
  }
};

struct HotLoopResult {
  uint64_t events = 0;
  uint64_t allocs = 0;
  double seconds = 0;

  double events_per_sec() const { return events / seconds; }
};

// Runs 200 us of warm-up (slot pool and heap reach their high-water marks),
// then measures 20 ms of simulated time with steady-state allocation
// accounting.
HotLoopResult Measure(sim::Simulation& sim) {
  sim.RunFor(sim::Micros(200));
  const uint64_t ev0 = sim.events_executed();
  const uint64_t alloc0 = g_allocs.load(std::memory_order_relaxed);
  const auto t0 = std::chrono::steady_clock::now();
  sim.RunFor(sim::Millis(20));
  const auto t1 = std::chrono::steady_clock::now();
  HotLoopResult r;
  r.events = sim.events_executed() - ev0;
  r.allocs = g_allocs.load(std::memory_order_relaxed) - alloc0;
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  return r;
}

// Schedule/fire throughput: 64 chains that rebuild their closure and
// schedule a fresh one-shot event on every firing — the only way to express
// a standing timer before ScheduleRepeating existed, and the loop the
// pre-change baseline binary runs verbatim.
HotLoopResult RunScheduleFireLoop() {
  sim::Simulation sim(1);
  constexpr int kChains = 64;
  Chain chains[kChains];
  for (int i = 0; i < kChains; ++i) {
    chains[i].sim = &sim;
    chains[i].token = static_cast<uint64_t>(i) * 0x9e3779b97f4a7c15ULL;
    chains[i].gap = 100 + static_cast<sim::Duration>(i);
    chains[i].Arm();
  }
  return Measure(sim);
}

// The same 64-timer workload — identical gaps, fire times and event count —
// expressed with ScheduleRepeating: one slot and one closure per chain for
// the whole run, re-keyed in place at every pop. This is the hot path the
// kernel tick, poll loops and arrival processes now use.
HotLoopResult RunRepeatingLoop() {
  sim::Simulation sim(1);
  constexpr int kChains = 64;
  static uint64_t fires[kChains];
  for (int i = 0; i < kChains; ++i) {
    fires[i] = 0;
    uint64_t* f = &fires[i];
    const uint64_t token = static_cast<uint64_t>(i) * 0x9e3779b97f4a7c15ULL;
    sim.ScheduleRepeating(100 + static_cast<sim::Duration>(i),
                          [f, token] { *f += 1 + (token & 0); });
  }
  return Measure(sim);
}

// The batched zero-copy packet path end to end: arena Alloc at ingress,
// handle through the accelerator pipeline into the descriptor ring, burst
// gather by a busy-polling PollService, batch-sink delivery, arena Free.
// Injection (4 packets/us) outruns the DP service (~1.1 Mpps), so the loop
// also exercises the overload shedding paths (ring-full publish frees the
// slot back to the pool). The steady state must not allocate: handles move
// by value, event captures stay inline, and all pool/ring/burst storage is
// sized up front.
struct PacketPathResult {
  uint64_t packets = 0;  // Delivered through the batch sink.
  uint64_t offered = 0;  // Ingress attempts (delivered + shed).
  uint64_t allocs = 0;
  double seconds = 0;

  double packets_per_sec() const { return packets / seconds; }
};

PacketPathResult RunPacketPathLoop() {
  sim::Simulation sim(1);
  hw::MachineConfig mcfg;
  mcfg.num_cpus = 1;
  hw::Machine machine(&sim, mcfg);
  os::Kernel kernel(&sim, &machine, os::KernelConfig{});
  hw::Accelerator& accel = machine.accelerator();
  const uint32_t q = accel.AddQueue(0);

  dp::PollService service(0, dp::PollServiceConfig{}, dp::YieldPolicy::kBusyPoll);
  sim::PacketPool* pool = &machine.pool();
  service.set_pool(pool);
  service.AttachRing(&accel.ring(q));
  service.set_sink([pool](const sim::PacketHandle* batch, size_t count, sim::SimTime) {
    for (size_t i = 0; i < count; ++i) {
      pool->Free(batch[i]);
    }
  });
  os::Task* task = kernel.Spawn("dp", std::make_unique<os::BehaviorRef>(&service),
                                os::CpuSet::Of({0}), os::Priority::kHigh);
  service.BindTask(&kernel, task);

  uint64_t next_id = 0;
  sim.ScheduleRepeating(sim::Micros(1), [&accel, &sim, &next_id, q] {
    hw::IoPacket pkt;
    pkt.size_bytes = 256;
    pkt.created = sim.Now();
    for (int i = 0; i < 4; ++i) {
      pkt.id = next_id++;
      pkt.flow = static_cast<uint32_t>(pkt.id & 7);
      accel.Ingress(q, pkt);
    }
  });

  // Warm up past the measurement window so every vector (event slots, ring
  // buffers) reaches a capacity the measured window cannot outgrow and the
  // per-packet summaries have bucketed the whole range of residencies and
  // queue delays the steady state produces: the measured window is then
  // exactly allocation-free, summaries included.
  sim.RunFor(sim::Millis(25));

  const uint64_t p0 = service.packets_processed();
  const uint64_t in0 = accel.packets_ingressed();
  const uint64_t alloc0 = g_allocs.load(std::memory_order_relaxed);
  const auto t0 = std::chrono::steady_clock::now();
  sim.RunFor(sim::Millis(20));
  const auto t1 = std::chrono::steady_clock::now();

  PacketPathResult r;
  r.packets = service.packets_processed() - p0;
  r.offered = accel.packets_ingressed() - in0;
  r.allocs = g_allocs.load(std::memory_order_relaxed) - alloc0;
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  return r;
}

}  // namespace

// Custom main: runs the allocation-audited hot loop first (writing a
// machine-readable sidecar when `--perf-json <path>` is given, and failing
// the process if the steady state allocates), then hands the remaining argv
// to google-benchmark. CI runs this with --benchmark_filter=NONE to get just
// the hot-loop gate.
int main(int argc, char** argv) {
  std::string perf_path;
  std::vector<char*> bench_args;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--perf-json") == 0 && i + 1 < argc) {
      perf_path = argv[i + 1];
      ++i;
      continue;
    }
    bench_args.push_back(argv[i]);
  }

  const HotLoopResult sched = RunScheduleFireLoop();
  const HotLoopResult rep = RunRepeatingLoop();
  const PacketPathResult pp = RunPacketPathLoop();
  std::printf("hot_loop schedule_fire: events=%llu allocs=%llu events_per_sec=%.0f\n",
              static_cast<unsigned long long>(sched.events),
              static_cast<unsigned long long>(sched.allocs), sched.events_per_sec());
  std::printf("hot_loop repeating_fire: events=%llu allocs=%llu events_per_sec=%.0f\n",
              static_cast<unsigned long long>(rep.events),
              static_cast<unsigned long long>(rep.allocs), rep.events_per_sec());
  std::printf(
      "hot_loop packet_path: packets=%llu offered=%llu allocs=%llu packets_per_sec=%.0f\n",
      static_cast<unsigned long long>(pp.packets),
      static_cast<unsigned long long>(pp.offered),
      static_cast<unsigned long long>(pp.allocs), pp.packets_per_sec());

  bench::JsonReport report("bench_micro_hot_loop", perf_path);
  report.Config("chains", static_cast<int64_t>(64));
  report.Config("warmup_us", static_cast<int64_t>(200));
  report.Config("measure_ms", static_cast<int64_t>(20));
  report.Metric("schedule_fire_events", static_cast<int64_t>(sched.events));
  report.Metric("schedule_fire_steady_state_allocs", static_cast<int64_t>(sched.allocs));
  report.Metric("schedule_fire_events_per_sec", sched.events_per_sec());
  report.Metric("repeating_fire_events", static_cast<int64_t>(rep.events));
  report.Metric("repeating_fire_steady_state_allocs", static_cast<int64_t>(rep.allocs));
  report.Metric("repeating_fire_events_per_sec", rep.events_per_sec());
  report.Metric("packet_path_packets", static_cast<int64_t>(pp.packets));
  report.Metric("packet_path_offered", static_cast<int64_t>(pp.offered));
  report.Metric("packet_path_steady_state_allocs", static_cast<int64_t>(pp.allocs));
  report.Metric("packet_path_packets_per_sec", pp.packets_per_sec());
  if (!report.Write()) {
    return 1;
  }
  if (sched.allocs != 0 || rep.allocs != 0) {
    std::fprintf(stderr,
                 "FAIL: event hot loop allocated %llu+%llu times in steady "
                 "state (expected 0; a capture outgrew InlineCallback's "
                 "inline buffer, or the slot pool is churning)\n",
                 static_cast<unsigned long long>(sched.allocs),
                 static_cast<unsigned long long>(rep.allocs));
    return 1;
  }
  if (pp.allocs != 0) {
    std::fprintf(stderr,
                 "FAIL: packet path allocated %llu times in steady state "
                 "(expected 0; a packet is being copied instead of moved by "
                 "handle, or a hot capture outgrew the inline buffer)\n",
                 static_cast<unsigned long long>(pp.allocs));
    return 1;
  }

  int bench_argc = static_cast<int>(bench_args.size());
  benchmark::Initialize(&bench_argc, bench_args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
