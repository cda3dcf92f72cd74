// Fleet simulator benchmark driver: runs one named fleet workload once and
// prints one JSON line with its set-up time, the wall and CPU time of each
// 50 ms slice of its stepping phase, the process's peak RSS, the correctness
// checks it made and a digest of the run's deterministic outputs. run.py
// turns these lines into the benchmark's metrics.
//
//   perfbench --workload rollout|ddos|hyperscale [--seed N] [--setup-only]
//   perfbench_traced --workload W [--seed N] --traced [--spans PATH]
//
// The untraced run does what the workload's harness does (fleet_rollout,
// scenario_suite --scenario ddos, fleet_scale) and only reads the clocks
// between its slices.
// The traced run, from the perfbench_traced binary that also counts
// allocations, steps the fleet one epoch at a time, times each call the
// driver makes into the fleet layer, samples every node at each epoch
// boundary, reads each module's public counters at the end and then runs the
// isolated layer microloops sized from the workload. Its simulated outputs,
// and so its digest, are the untraced run's.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "perfbench/microloops.h"
#include "src/fleet/cluster.h"
#include "src/fleet/load_gen.h"
#include "src/fleet/rollout.h"
#include "src/fleet/slo_monitor.h"
#include "src/obs/json.h"
#include "src/scenario/library.h"
#include "src/scenario/scenario.h"

#if PERFBENCH_COUNT_ALLOCS
// Replacement allocation functions: new takes from malloc, so free is the
// matching release (GCC cannot see that pairing across replacement).
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
namespace {
std::atomic<uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }

static uint64_t AllocCount() { return g_allocs.load(std::memory_order_relaxed); }
static constexpr bool kCountsAllocs = true;
#else
static uint64_t AllocCount() { return 0; }
static constexpr bool kCountsAllocs = false;
#endif

namespace perfbench {
namespace {

using namespace taichi;
using Clock = std::chrono::steady_clock;

// Seed 42 reproduces each source harness's default run byte for byte.
constexpr uint64_t kDefaultSeed = 42;

// Every workload steps its nodes on min(4, cores) threads. Outputs are
// byte-identical at any thread count; on a shared host, one thread's speed
// swings with whichever core it lands on, and a run spread over every core
// reads steadier.
int Threads() {
  return static_cast<int>(std::clamp<unsigned>(std::thread::hardware_concurrency(), 1, 4));
}

double Seconds(Clock::duration d) { return std::chrono::duration<double>(d).count(); }
double Millis(Clock::duration d) { return std::chrono::duration<double, std::milli>(d).count(); }

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux.
}

double RssMb() {
  long pages = 0;
  long resident = 0;
  if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) {
      resident = 0;
    }
    std::fclose(f);
  }
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) / 1048576.0;
}

// FNV-1a over the run's deterministic outputs.
class Digest {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xff;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void AddDouble(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    Add(bits);
  }
  std::string Hex() const {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, hash_);
    return buf;
  }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

struct Checks {
  void Expect(std::string name, bool pass) {
    ++attempted;
    if (!pass) {
      failed.push_back(std::move(name));
    }
  }
  uint64_t attempted = 0;
  std::vector<std::string> failed;
};

// Module counters summed over the fleet, read through public accessors.
struct Counters {
  uint64_t hw_ingressed = 0;
  uint64_t ring_drops = 0;
  uint64_t pool_drops = 0;
  uint64_t dp_packets = 0;
  uint64_t dp_bytes = 0;
  uint64_t context_switches = 0;
  uint64_t softirqs = 0;
  uint64_t ipis = 0;
  uint64_t guest_entries = 0;
  uint64_t vcpu_switches = 0;
  uint64_t probe_preemptions = 0;
  uint64_t vm_started = 0;
  uint64_t vm_completed = 0;
  uint64_t flow_updates = 0;
};

// Simulated time, wall and CPU time of one slice of the stepping phase.
struct Slice {
  double sim_ms = 0;
  double wall_s = 0;
  double cpu_s = 0;
};

// One workload run, as main() reports it.
struct Run {
  double setup_s = 0;
  uint64_t events = 0;  // Executed by the stepping phase, fleet-wide.
  uint64_t allocs = 0;  // Ditto; traced binary only.
  std::vector<Slice> slices;
  Counters counters;
  double rx_flows = 0;  // Distinct flows in the merged RX sketches.
  // Inputs for the microloops.
  obs::FlowMonitorConfig sketch;
  size_t node_flows = 0;
  uint32_t packet_bytes = 0;
  Checks checks;
  Digest digest;
  std::vector<std::pair<std::string, double>> layers;  // Traced runs only.
};

// Everything the traced run adds: call spans, per-epoch samples and the
// epoch hook. Untraced runs have none.
class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  // Registers the wall-clock hook before any other epoch hook, so it fires
  // as soon as the last node has reached the boundary.
  void Attach(fleet::Cluster& cluster) {
    cluster.AddEpochHook([this](sim::SimTime) { hooks_start_ = Clock::now(); });
  }

  template <typename Fn>
  auto Time(const char* name, Fn&& fn) {
    const Clock::time_point t0 = Clock::now();
    if constexpr (std::is_void_v<std::invoke_result_t<Fn&>>) {
      fn();
      Record(name, t0, Clock::now());
    } else {
      auto result = fn();
      Record(name, t0, Clock::now());
      return result;
    }
  }

  // One Cluster::RunFor call covering exactly one epoch, ending at `next`.
  void Step(fleet::Cluster& cluster, sim::SimTime next) {
    const size_t n = cluster.size();
    node_events_.assign(n, 0);
    for (size_t i = 0; i < n; ++i) {
      if (!cluster.alive(i)) {
        continue;
      }
      const sim::Simulation& s = cluster.node(i).sim();
      pending_peak_ = std::max(pending_peak_, s.pending_events());
      idle_node_epochs_ += s.IdleUntil(next) ? 1 : 0;
      node_events_[i] = s.events_executed();
    }
    rss_.emplace_back(sim::ToSeconds(cluster.Now()), RssMb());

    const Clock::time_point t0 = Clock::now();
    hooks_start_ = t0;
    cluster.RunFor(next - cluster.Now());
    const Clock::time_point t2 = Clock::now();
    const Clock::time_point t1 = hooks_start_;

    uint64_t max_events = 0;
    uint64_t sum_events = 0;
    size_t alive = 0;
    for (size_t i = 0; i < n; ++i) {
      if (!cluster.alive(i)) {
        continue;
      }
      const uint64_t e = cluster.node(i).sim().events_executed() - node_events_[i];
      max_events = std::max(max_events, e);
      sum_events += e;
      ++alive;
    }
    if (sum_events > 0) {
      straggler_max_ += static_cast<double>(max_events);
      straggler_mean_ += static_cast<double>(sum_events) / static_cast<double>(alive);
    }
    step_s_ += Seconds(t1 - t0);
    hook_s_ += Seconds(t2 - t1);
    epoch_ms_.push_back(Millis(t2 - t0));
    const uint32_t epoch = Record("fleet.epoch", t0, t2);
    Record("fleet.step_nodes", t0, t1, epoch);
    Record("fleet.hooks", t1, t2, epoch);
  }

  // Per-layer metrics of the finished run (before its cluster is gone).
  std::vector<std::pair<std::string, double>> Layers(fleet::Cluster& cluster,
                                                     const Run& run) const {
    uint64_t summary_samples = 0;
    for (size_t i = 0; i < cluster.size(); ++i) {
      for (const obs::MetricSample& m :
           cluster.observability(i).metrics.Snapshot(cluster.Now()).samples) {
        summary_samples += m.kind == obs::MetricSample::Kind::kSummary ? m.count : 0;
      }
    }
    const Counters& c = run.counters;
    const double events = static_cast<double>(std::max<uint64_t>(run.events, 1));
    std::vector<double> epochs = epoch_ms_;
    std::sort(epochs.begin(), epochs.end());
    const size_t ne = epochs.size();
    // Tail: the highest percentile with at least 10 epochs beyond it.
    const size_t tail_index = ne > 10 ? ne - 11 : (ne > 0 ? ne - 1 : 0);
    const double tail_pct =
        ne > 10 ? 100.0 * static_cast<double>(ne - 10) / static_cast<double>(ne) : 100.0;
    const size_t nodes = cluster.size();
    return {
        {"sim.events", static_cast<double>(run.events)},
        {"sim.ns_per_event", step_s_ * 1e9 / events},
        {"sim.pending_peak", static_cast<double>(pending_peak_)},
        {"sim.allocs_per_event", static_cast<double>(run.allocs) / events},
        {"sim.summary_samples", static_cast<double>(summary_samples)},
        {"sim.summary_mb",
         static_cast<double>(summary_samples * sizeof(double)) / 1048576.0},
        {"proc.rss_growth_mb_per_sim_s", RssSlope()},
        {"hw.packets", static_cast<double>(c.hw_ingressed)},
        {"hw.drop_share", c.hw_ingressed > 0 ? static_cast<double>(c.ring_drops + c.pool_drops) /
                                                   static_cast<double>(c.hw_ingressed)
                                             : 0.0},
        {"dp.packets", static_cast<double>(c.dp_packets)},
        {"os.context_switches", static_cast<double>(c.context_switches)},
        {"os.softirqs", static_cast<double>(c.softirqs)},
        {"os.ipis", static_cast<double>(c.ipis)},
        {"os.guest_entries", static_cast<double>(c.guest_entries)},
        {"taichi.vcpu_switches", static_cast<double>(c.vcpu_switches)},
        {"taichi.probe_preemptions", static_cast<double>(c.probe_preemptions)},
        {"cp.vm_started", static_cast<double>(c.vm_started)},
        {"cp.vm_completed", static_cast<double>(c.vm_completed)},
        {"obs.flow_updates", static_cast<double>(c.flow_updates)},
        {"obs.merge_ms", TotalMs("obs.merge")},
        {"fleet.epochs", static_cast<double>(ne)},
        {"fleet.epoch_ms.p50", ne > 0 ? epochs[ne / 2] : 0.0},
        {"fleet.epoch_ms.tail", ne > 0 ? epochs[tail_index] : 0.0},
        {"fleet.epoch_ms.tail_pct", tail_pct},
        {"fleet.node_events_max_over_mean",
         straggler_mean_ > 0 ? straggler_max_ / straggler_mean_ : 0.0},
        {"fleet.idle_node_epochs", static_cast<double>(idle_node_epochs_)},
        {"fleet.hook_ms", hook_s_ * 1e3},
        {"fleet.observe_ms", TotalMs("fleet.slo_observe")},
        {"fleet.observe_calls", static_cast<double>(Calls("fleet.slo_observe"))},
        {"exp.node_build_ms", TotalMs("exp.cluster_build") / static_cast<double>(nodes)},
        {"exp.source_start_ms", TotalMs("exp.source_start")},
    };
  }

  size_t pending_peak() const { return pending_peak_; }

  // Chrome trace-event JSON: one complete event per span, its id and the
  // id of the span that caused it in args. Written once, after the run.
  bool WriteSpans(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "perfbench: cannot write spans to '%s'\n", path.c_str());
      return false;
    }
    std::fprintf(f, "{\"traceEvents\":[\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                   "\"dur\":%.3f,\"args\":{\"id\":%u,\"parent\":%u}}\n",
                   i == 0 ? "" : ",", s.name, s.start_us, s.dur_us, s.id, s.parent);
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    const char* name;
    double start_us;
    double dur_us;
    uint32_t id;
    uint32_t parent;  // 0: caused by the run itself.
  };
  struct Total {
    double ms = 0;
    uint64_t calls = 0;
  };

  uint32_t Record(const char* name, Clock::time_point t0, Clock::time_point t1,
                  uint32_t parent = 0) {
    const uint32_t id = static_cast<uint32_t>(spans_.size() + 1);
    spans_.push_back({name, 1e-3 * std::chrono::duration<double, std::nano>(t0 - origin_).count(),
                      1e-3 * std::chrono::duration<double, std::nano>(t1 - t0).count(), id,
                      parent});
    Total& t = totals_[name];
    t.ms += Millis(t1 - t0);
    ++t.calls;
    return id;
  }

  double TotalMs(const std::string& name) const {
    auto it = totals_.find(name);
    return it == totals_.end() ? 0.0 : it->second.ms;
  }
  uint64_t Calls(const std::string& name) const {
    auto it = totals_.find(name);
    return it == totals_.end() ? 0 : it->second.calls;
  }

  // Least-squares RSS slope (MiB per simulated second) over the epoch
  // boundaries after the first quarter of the run.
  double RssSlope() const {
    const size_t first = rss_.size() / 4;
    const size_t n = rss_.size() - first;
    if (n < 2) {
      return 0.0;
    }
    double sx = 0, sy = 0;
    for (size_t i = first; i < rss_.size(); ++i) {
      sx += rss_[i].first;
      sy += rss_[i].second;
    }
    const double mx = sx / static_cast<double>(n);
    const double my = sy / static_cast<double>(n);
    double sxy = 0, sxx = 0;
    for (size_t i = first; i < rss_.size(); ++i) {
      sxy += (rss_[i].first - mx) * (rss_[i].second - my);
      sxx += (rss_[i].first - mx) * (rss_[i].first - mx);
    }
    return sxx > 0 ? sxy / sxx : 0.0;
  }

  Clock::time_point origin_;
  Clock::time_point hooks_start_;
  std::vector<Span> spans_;
  std::map<std::string, Total> totals_;
  std::vector<uint64_t> node_events_;
  std::vector<std::pair<double, double>> rss_;  // (fleet sim s, RSS MiB).
  std::vector<double> epoch_ms_;
  size_t pending_peak_ = 0;
  uint64_t idle_node_epochs_ = 0;
  double straggler_max_ = 0;
  double straggler_mean_ = 0;
  double step_s_ = 0;
  double hook_s_ = 0;
};

// Calls `fn`, as a timed span when tracing.
template <typename Fn>
auto Call(Tracer* tracer, const char* name, Fn&& fn) {
  return tracer != nullptr ? tracer->Time(name, fn) : fn();
}

std::unique_ptr<fleet::Cluster> Build(const fleet::ClusterConfig& config, Tracer* tracer) {
  std::unique_ptr<fleet::Cluster> cluster =
      Call(tracer, "exp.cluster_build", [&] { return std::make_unique<fleet::Cluster>(config); });
  if (tracer != nullptr) {
    tracer->Attach(*cluster);
  }
  return cluster;
}

fleet::SloMonitor::Report Observe(fleet::SloMonitor& monitor, Tracer* tracer) {
  return Call(tracer, "fleet.slo_observe", [&] { return monitor.Observe(); });
}

// The stepping phase, from after set-up to the source's Stop. It advances
// the fleet in 50 ms slices of simulated time and reads the wall and CPU
// clocks after each; run.py reports rates as medians over the slices, which
// a few slow seconds on a shared host cannot move.
class Phase {
 public:
  Phase(fleet::Cluster& cluster, Tracer* tracer)
      : cluster_(cluster),
        tracer_(tracer),
        allocs0_(AllocCount()),
        events0_(FleetEvents(cluster)),
        mark_wall_(Clock::now()),
        mark_cpu_(CpuSeconds()),
        mark_sim_(cluster.Now()) {}

  // Advances the fleet by `d`: one Cluster::RunFor call per slice untraced,
  // one per epoch traced. Both cross the same epoch boundaries.
  void Advance(sim::Duration d) {
    const sim::SimTime end = cluster_.Now() + d;
    while (cluster_.Now() < end) {
      const sim::SimTime next = std::min(end, cluster_.Now() + kSlice);
      if (tracer_ == nullptr) {
        cluster_.RunFor(next - cluster_.Now());
      } else {
        while (cluster_.Now() < next) {
          tracer_->Step(cluster_, std::min(next, cluster_.Now() + cluster_.config().epoch));
        }
      }
      const Clock::time_point wall = Clock::now();
      const double cpu = CpuSeconds();
      slices_.push_back({1e3 * sim::ToSeconds(next - mark_sim_), Seconds(wall - mark_wall_),
                         cpu - mark_cpu_});
      mark_wall_ = wall;
      mark_cpu_ = cpu;
      mark_sim_ = next;
    }
  }

  void End(Run* run) const {
    run->allocs = AllocCount() - allocs0_;
    run->events = FleetEvents(cluster_) - events0_;
    run->slices = slices_;
  }

 private:
  static constexpr sim::Duration kSlice = sim::Millis(50);

  static uint64_t FleetEvents(fleet::Cluster& cluster) {
    uint64_t events = 0;
    for (size_t i = 0; i < cluster.size(); ++i) {
      events += cluster.alive(i) ? cluster.node(i).sim().events_executed() : 0;
    }
    return events;
  }

  fleet::Cluster& cluster_;
  Tracer* tracer_;
  uint64_t allocs0_;
  uint64_t events0_;
  Clock::time_point mark_wall_;
  double mark_cpu_;
  sim::SimTime mark_sim_;
  std::vector<Slice> slices_;
};

// Reads every node's counters into the digest, checks per-node packet
// conservation at the accelerator, merges the fleet's flow sketches and,
// when tracing, takes the per-layer metrics.
void Finish(fleet::Cluster& cluster, Tracer* tracer, Run* run) {
  Counters& c = run->counters;
  Digest& d = run->digest;
  d.Add(static_cast<uint64_t>(cluster.Now()));
  for (size_t i = 0; i < cluster.size(); ++i) {
    if (!cluster.alive(i)) {
      run->checks.Expect("alive." + cluster.node_name(i), false);
      continue;
    }
    exp::Testbed& bed = cluster.node(i);
    const hw::Accelerator& accel = bed.machine().accelerator();
    uint64_t in_flight = 0;
    for (uint32_t q = 0; q < accel.queue_count(); ++q) {
      in_flight += accel.in_flight(q);
    }
    run->checks.Expect("conservation." + cluster.node_name(i),
                       accel.packets_ingressed() == accel.packets_published() +
                                                        accel.ring_drops() +
                                                        accel.pool_drops() + in_flight);
    uint64_t dp_packets = 0;
    uint64_t dp_bytes = 0;
    for (size_t s = 0; s < bed.service_count(); ++s) {
      dp_packets += bed.service(s).packets_processed();
      dp_bytes += bed.service(s).bytes_processed();
    }
    const os::Kernel& kernel = bed.kernel();
    uint64_t vcpu_switches = 0;
    uint64_t probe_preemptions = 0;
    if (core::TaiChi* taichi = bed.taichi()) {
      vcpu_switches = taichi->scheduler().switches();
      probe_preemptions = taichi->scheduler().probe_preemptions();
    }
    const cp::DeviceManager& dm = bed.device_manager();
    const uint64_t flow_updates = bed.flow_rx().total_packets() +
                                  bed.flow_dp().total_packets() +
                                  bed.flow_tx().total_packets();
    const uint64_t node[] = {bed.sim().events_executed(),
                             accel.packets_ingressed(),
                             accel.packets_published(),
                             accel.ring_drops(),
                             accel.pool_drops(),
                             in_flight,
                             dp_packets,
                             dp_bytes,
                             kernel.context_switches(),
                             kernel.softirqs_run(),
                             kernel.ipis_sent(),
                             kernel.guest_entries(),
                             vcpu_switches,
                             probe_preemptions,
                             static_cast<uint64_t>(dm.started()),
                             static_cast<uint64_t>(dm.completed()),
                             flow_updates};
    for (uint64_t v : node) {
      d.Add(v);
    }
    c.hw_ingressed += accel.packets_ingressed();
    c.ring_drops += accel.ring_drops();
    c.pool_drops += accel.pool_drops();
    c.dp_packets += dp_packets;
    c.dp_bytes += dp_bytes;
    c.context_switches += kernel.context_switches();
    c.softirqs += kernel.softirqs_run();
    c.ipis += kernel.ipis_sent();
    c.guest_entries += kernel.guest_entries();
    c.vcpu_switches += vcpu_switches;
    c.probe_preemptions += probe_preemptions;
    c.vm_started += static_cast<uint64_t>(dm.started());
    c.vm_completed += static_cast<uint64_t>(dm.completed());
    c.flow_updates += flow_updates;
  }
  for (fleet::Cluster::FlowTap tap :
       {fleet::Cluster::FlowTap::kRx, fleet::Cluster::FlowTap::kDp, fleet::Cluster::FlowTap::kTx}) {
    const obs::FlowMonitor merged =
        Call(tracer, "obs.merge", [&] { return cluster.MergedFlowMonitor(tap); });
    if (tap == fleet::Cluster::FlowTap::kRx) {
      run->rx_flows = merged.DistinctFlows();
    }
    d.AddDouble(merged.DistinctFlows());
    d.Add(merged.total_packets());
    d.Add(merged.total_bytes());
    for (const auto& e : merged.TopK(4)) {
      d.Add(e.key.PackHi());
      d.Add(e.key.PackLo());
      d.Add(e.bytes);
    }
  }
  run->sketch = cluster.config().node.flow_monitor;
  run->node_flows = cluster.alive(0)
                        ? static_cast<size_t>(cluster.node(0).flow_rx().DistinctFlows() + 0.5)
                        : 0;
  run->packet_bytes = c.dp_packets > 0 ? static_cast<uint32_t>(c.dp_bytes / c.dp_packets) : 512;
  if (tracer != nullptr) {
    run->layers = tracer->Layers(cluster, *run);
  }
}

// --- Workloads ---------------------------------------------------------------
//
// Each builds its fleet (the timed set-up), runs its phases, then checks and
// digests the outcome. `setup_only` stops after set-up. The seed is the
// cluster seed, so it moves every node's random streams; the fleet's
// composition (each node's Fig. 3 load draw, VM arrivals, flow mix) comes
// from the harness's default load seed at every seed, because the checks
// describe that fleet's shape.

// fleet_rollout's default run (§6.6): 12 baseline nodes at 4x density, the
// SLO-gated staged Tai Chi rollout in waves 2/6/12, then the converged phase.
void Rollout(uint64_t seed, bool setup_only, Tracer* tracer, Run* run) {
  constexpr int kNodes = 12;
  constexpr double kStartupSloMs = 160.0;
  constexpr double kHostInstantiateMs = 60.0;

  const Clock::time_point setup0 = Clock::now();
  fleet::ClusterConfig ccfg;
  ccfg.num_nodes = kNodes;
  ccfg.seed = seed;
  ccfg.epoch = sim::Millis(5);
  ccfg.threads = Threads();
  ccfg.node.mode = exp::Mode::kBaseline;
  const scenario::Fig3Mix mix = scenario::Fig3DensityMix(4);
  ccfg.tweak = mix.tweak;
  std::unique_ptr<fleet::Cluster> cluster = Build(ccfg, tracer);
  scenario::Fig3Source source(mix.load);
  Call(tracer, "exp.source_start", [&] { source.Start(*cluster); });
  fleet::SloConfig slo;
  slo.threshold = kStartupSloMs - kHostInstantiateMs;
  slo.percentile = 99.0;
  slo.min_samples = 20;
  fleet::SloMonitor monitor(cluster.get(), slo);
  run->setup_s = Seconds(Clock::now() - setup0);
  if (setup_only) {
    return;
  }

  Phase phase(*cluster, tracer);
  phase.Advance(sim::Millis(300));
  const fleet::SloMonitor::Report before = Observe(monitor, tracer);
  fleet::RolloutConfig rcfg;
  rcfg.waves = {2, 6, kNodes};
  rcfg.settle = sim::Millis(600);
  rcfg.soak = sim::Millis(300);
  rcfg.slo = slo;
  fleet::Rollout rollout(cluster.get(), rcfg);
  rollout.Start();
  const sim::SimTime deadline = cluster->Now() + sim::Seconds(5);
  while (rollout.state() == fleet::Rollout::State::kSoaking && cluster->Now() < deadline) {
    phase.Advance(sim::Millis(50));
  }
  Observe(monitor, tracer);  // Opens the window on post-rollout samples only.
  phase.Advance(sim::Millis(400));
  const fleet::SloMonitor::Report after = Observe(monitor, tracer);
  source.Stop(*cluster);
  phase.End(run);

  const double before_ms = before.fleet_value + kHostInstantiateMs;
  const double after_ms = after.fleet_value + kHostInstantiateMs;
  std::fprintf(stderr,
               "rollout: state %d after %zu gates; fleet p99 %.1f ms (%zu samples) before, "
               "%.1f ms (%zu samples) after\n",
               static_cast<int>(rollout.state()), rollout.gate_reports().size(), before_ms,
               before.total_samples, after_ms, after.total_samples);
  run->checks.Expect("rollout_done", rollout.state() == fleet::Rollout::State::kDone);
  run->checks.Expect("p99_before_over_slo", before_ms > kStartupSloMs);
  run->checks.Expect("p99_after_under_slo", after_ms < kStartupSloMs);
  Digest& d = run->digest;
  d.Add(static_cast<uint64_t>(rollout.state()));
  d.Add(rollout.gate_reports().size());
  d.Add(rollout.history().size());
  d.AddDouble(before_ms);
  d.Add(before.total_samples);
  d.AddDouble(after_ms);
  d.Add(after.total_samples);
  Finish(*cluster, tracer, run);
}

// scenario_suite's `ddos` scenario: a 12-node Tai Chi fleet at 4x density,
// a spoofed 12-source flood at 50 % DP utilization on node 0, scored in
// 200 ms SLO windows with heavy-hitter attribution. The phases and the
// scoring are scenario::ScenarioRunner's, driven here call by call.
void Ddos(uint64_t seed, bool setup_only, Tracer* tracer, Run* run) {
  scenario::ScenarioOptions opts;
  opts.threads = Threads();
  scenario::ScenarioSpec spec = scenario::BuildScenario("ddos", opts);
  spec.cluster.seed = seed;

  const Clock::time_point setup0 = Clock::now();
  std::unique_ptr<fleet::Cluster> cluster = Build(spec.cluster, tracer);
  std::unique_ptr<scenario::TrafficSource> source = spec.make_source(*cluster);
  Call(tracer, "exp.source_start", [&] { source->Start(*cluster); });
  fleet::SloMonitor monitor(cluster.get(), spec.slo);
  run->setup_s = Seconds(Clock::now() - setup0);
  if (setup_only) {
    return;
  }

  Phase phase(*cluster, tracer);
  phase.Advance(spec.warmup);
  Observe(monitor, tracer);
  size_t windows = 0, breaches = 0, hotspots = 0, attributed = 0, samples = 0;
  double worst = 0, last = 0;
  const sim::SimTime observed_end = cluster->Now() + spec.observed;
  while (cluster->Now() < observed_end) {
    phase.Advance(spec.observe_every);
    const fleet::SloMonitor::Report r = Observe(monitor, tracer);
    ++windows;
    samples += r.total_samples;
    if (r.total_samples > 0) {
      worst = std::max(worst, r.fleet_value);
      last = r.fleet_value;
    }
    breaches += r.fleet_breach ? 1 : 0;
    if (!r.hotspots.empty()) {
      ++hotspots;
      bool named = false;
      for (const fleet::SloMonitor::HeavyFlow& f : r.fleet_heavy) {
        named = named || scenario::IsAttackFlow(f);
      }
      for (const fleet::SloMonitor::NodeStat& n : r.nodes) {
        for (const fleet::SloMonitor::HeavyFlow& f : n.heavy) {
          named = named || scenario::IsAttackFlow(f);
        }
      }
      attributed += named ? 1 : 0;
    }
  }
  phase.Advance(spec.drain);
  source->Stop(*cluster);
  phase.End(run);

  uint64_t ring_drops = 0;
  for (size_t i = 0; i < cluster->size(); ++i) {
    ring_drops += cluster->alive(i) ? cluster->node(i).machine().accelerator().ring_drops() : 0;
  }
  std::fprintf(stderr,
               "ddos: %zu windows, %zu breach, %zu hotspot, %zu attributed, %zu samples, "
               "%llu rx ring drops\n",
               windows, breaches, hotspots, attributed, samples,
               static_cast<unsigned long long>(ring_drops));
  const scenario::ScenarioExpectations& e = spec.expect;
  Checks& checks = run->checks;
  // The runner's scoring; this scenario engages no chaos and no autopilot.
  checks.Expect("no_chaos_no_autopilot", !spec.use_chaos && !spec.use_autopilot);
  checks.Expect("fleet_samples", samples >= e.min_fleet_samples);
  if (e.max_breach_windows != static_cast<size_t>(-1)) {
    checks.Expect("breach_windows_max", breaches <= e.max_breach_windows);
  }
  if (e.min_breach_windows > 0) {
    checks.Expect("breach_windows_min", breaches >= e.min_breach_windows);
  }
  if (e.min_hotspot_windows > 0) {
    checks.Expect("hotspot_windows", hotspots >= e.min_hotspot_windows);
  }
  if (e.require_attack_attribution) {
    checks.Expect("attack_attributed", attributed > 0);
  }
  if (e.min_rx_ring_drops > 0) {
    checks.Expect("rx_ring_drops", ring_drops >= e.min_rx_ring_drops);
  }
  if (e.require_full_recovery) {
    checks.Expect("full_recovery", cluster->alive_count() == cluster->size());
  }
  Digest& d = run->digest;
  for (uint64_t v : {windows, breaches, hotspots, attributed, samples}) {
    d.Add(v);
  }
  d.AddDouble(worst);
  d.AddDouble(last);
  Finish(*cluster, tracer, run);
}

// fleet_scale's shape at 256 lean baseline nodes, without its inert
// standing timers: flow-aggregate load only.
void Hyperscale(uint64_t seed, bool setup_only, Tracer* tracer, Run* run) {
  constexpr int kNodes = 256;

  const Clock::time_point setup0 = Clock::now();
  fleet::ClusterConfig ccfg;
  ccfg.num_nodes = kNodes;
  ccfg.seed = seed;
  ccfg.epoch = sim::Millis(5);
  ccfg.threads = Threads();
  ccfg.node.mode = exp::Mode::kBaseline;
  ccfg.node.packet_pool_capacity = 4096;
  ccfg.node.flow_monitor.cms_width = 512;
  ccfg.node.flow_monitor.cms_depth = 2;
  ccfg.node.flow_monitor.topk_capacity = 16;
  std::unique_ptr<fleet::Cluster> cluster = Build(ccfg, tracer);
  fleet::LoadGenConfig load;
  load.aggregate.enabled = true;
  load.aggregate.users_per_node = 1000.0;
  load.aggregate.pps_per_user = 40.0;
  load.aggregate.flows_per_user = 1.0;
  load.vm_arrivals = false;
  load.spawn_monitors = false;
  fleet::LoadGen gen(cluster.get(), load);
  Call(tracer, "exp.source_start", [&] { gen.Start(*cluster); });
  run->setup_s = Seconds(Clock::now() - setup0);
  if (setup_only) {
    return;
  }

  Phase phase(*cluster, tracer);
  phase.Advance(sim::Millis(250));
  gen.Stop(*cluster);
  phase.End(run);

  uint64_t flows = 0;
  double pps = 0;
  for (const fleet::LoadGen::NodeMix& mix : gen.node_mixes()) {
    flows += mix.flows;
    pps += mix.pps;
  }
  run->digest.Add(flows);
  run->digest.AddDouble(pps);
  Finish(*cluster, tracer, run);
  std::fprintf(stderr, "hyperscale: %llu flows configured, %.0f in the merged RX sketch\n",
               static_cast<unsigned long long>(flows), run->rx_flows);
  run->checks.Expect("rx_distinct_flows", run->rx_flows > 0.8 * static_cast<double>(flows));
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload rollout|ddos|hyperscale [--seed N] "
               "[--setup-only | --traced [--spans PATH]]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  std::string spans_path;
  uint64_t seed = kDefaultSeed;
  bool traced = false;
  bool setup_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--traced") {
      traced = true;
    } else if (arg == "--setup-only") {
      setup_only = true;
    } else if (i + 1 < argc && arg == "--workload") {
      workload = argv[++i];
    } else if (i + 1 < argc && arg == "--spans") {
      spans_path = argv[++i];
    } else if (i + 1 < argc && arg == "--seed") {
      char* end = nullptr;
      seed = std::strtoull(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0') {
        return Usage();
      }
    } else {
      return Usage();
    }
  }
  using WorkloadFn = void (*)(uint64_t, bool, Tracer*, Run*);
  const std::map<std::string, WorkloadFn> workloads = {
      {"rollout", Rollout}, {"ddos", Ddos}, {"hyperscale", Hyperscale}};
  const auto it = workloads.find(workload);
  if (it == workloads.end() || (traced && setup_only)) {
    return Usage();
  }
  if (traced && !kCountsAllocs) {
    std::fprintf(stderr, "perfbench: --traced needs the perfbench_traced binary\n");
    return 2;
  }

  std::unique_ptr<Tracer> tracer = traced ? std::make_unique<Tracer>() : nullptr;
  Run run;
  it->second(seed, setup_only, tracer.get(), &run);
  const double peak_rss_mb = PeakRssMb();

  obs::JsonWriter w;
  w.BeginObject();
  w.Field("workload", workload);
  w.Field("seed", seed);
  w.Field("setup_s", run.setup_s);
  if (!setup_only) {
    w.Key("slices").BeginArray();
    for (const Slice& slice : run.slices) {
      w.BeginArray().Value(slice.sim_ms).Value(slice.wall_s).Value(slice.cpu_s).EndArray();
    }
    w.EndArray();
    w.Field("peak_rss_mb", peak_rss_mb);
    w.Field("attempted", run.checks.attempted);
    w.Key("failed").BeginArray();
    for (const std::string& name : run.checks.failed) {
      w.Value(name);
    }
    w.EndArray();
    w.Field("digest", run.digest.Hex());
  }
  if (tracer != nullptr) {
    std::vector<std::pair<std::string, double>>& layers = run.layers;
    layers.emplace_back("sim.schedule_pop_ns", SchedulePopNs(tracer->pending_peak()));
    layers.emplace_back("os.context_switch_ns", ContextSwitchNs());
    layers.emplace_back("hw.ingress_ns", IngressNs());
    layers.emplace_back("dp.burst_ns_per_packet", BurstNsPerPacket(run.packet_bytes));
    layers.emplace_back("obs.flow_update_ns", FlowUpdateNs(run.sketch, run.node_flows));
    layers.emplace_back("sim.summary_add_ns", SummaryAddNs());
    w.Key("layers").BeginObject();
    for (const auto& [name, value] : layers) {
      w.Field(name, value);
    }
    w.EndObject();
    if (!spans_path.empty() && !tracer->WriteSpans(spans_path)) {
      return 1;
    }
  }
  w.EndObject();
  std::printf("%s\n", w.str().c_str());
  return 0;
}
