// Hyperscale fleet scaling: how far the per-node cost curve holds as the
// cluster grows from the paper's 12-node testbed toward hyperscale counts.
//
// Each sweep point builds a fresh cluster of N lean baseline nodes, drives
// it with the flow-aggregate load model (millions of users folded into
// per-node arrival-mix state, O(nodes) memory), and steps the whole fleet
// for a fixed slice of simulated time. The figure of merit is wall cost per
// simulated event: flat means the simulator scales linearly in node count,
// which is what sharded epoch stepping exists to deliver.
//
// `--json <path>` is the deterministic report (per-point event totals,
// per-node min/max, merged-sketch distinct flows): byte-identical across
// `--threads` values, which CI enforces with a t1 vs t4 `cmp`. Wall-clock
// numbers (events/sec, per-node rate ratios) go to the `--perf-json`
// sidecar only.
//
// Default sweep is {12, 256, 1024}; `--full` extends to {4096, 10240};
// `--nodes N` pins a single point. Unknown flags are ignored.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "src/fleet/cluster.h"
#include "src/fleet/load_gen.h"

using namespace taichi;

namespace {

struct Options {
  std::vector<int> nodes = {12, 256, 1024};
  int threads = 1;
  double duration_ms = 250.0;
  double users_per_node = 1000.0;
  double pps_per_user = 40.0;
  double flows_per_user = 1.0;
  std::string perf_json_path;
};

struct PointResult {
  int nodes = 0;
  uint64_t events_total = 0;
  uint64_t events_min = 0;   // Across nodes.
  uint64_t events_max = 0;
  uint64_t aggregate_flows = 0;  // Configured fleet flow population.
  double distinct_flows = 0;     // Merged RX HLL estimate.
  double aggregate_pps = 0;      // Offered fleet packets/sec.
  double wall_ms = 0;            // Host-dependent; perf sidecar only.
};

PointResult RunPoint(const Options& opt, int nodes) {
  fleet::ClusterConfig ccfg;
  ccfg.num_nodes = nodes;
  ccfg.seed = 42;
  ccfg.epoch = sim::Millis(5);
  ccfg.threads = opt.threads;
  ccfg.node.mode = exp::Mode::kBaseline;
  // Lean node: at 10k nodes the default 64k-slot packet arenas and 4096x4
  // sketches dominate memory for no benefit at this offered load.
  ccfg.node.packet_pool_capacity = 4096;
  ccfg.node.flow_monitor.cms_width = 512;
  ccfg.node.flow_monitor.cms_depth = 2;
  ccfg.node.flow_monitor.topk_capacity = 16;
  fleet::Cluster cluster(ccfg);

  fleet::LoadGenConfig load;
  load.seed = 2024;
  load.aggregate.enabled = true;
  load.aggregate.users_per_node = opt.users_per_node;
  load.aggregate.pps_per_user = opt.pps_per_user;
  load.aggregate.flows_per_user = opt.flows_per_user;
  // The startup-workflow stream and the monitor fleet are the rollout
  // harness's subject; here they would only blur the events/sec signal.
  load.vm_arrivals = false;
  load.spawn_monitors = false;
  fleet::LoadGen gen(&cluster, load);
  gen.Start();

  const auto wall_start = std::chrono::steady_clock::now();
  cluster.RunFor(sim::MillisF(opt.duration_ms));
  const double wall_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - wall_start)
          .count();
  gen.Stop();

  PointResult out;
  out.nodes = nodes;
  out.wall_ms = wall_ms;
  out.events_min = ~0ull;
  for (size_t i = 0; i < cluster.size(); ++i) {
    const uint64_t e = cluster.node(i).sim().events_executed();
    out.events_total += e;
    out.events_min = std::min(out.events_min, e);
    out.events_max = std::max(out.events_max, e);
  }
  for (const fleet::LoadGen::NodeMix& mix : gen.node_mixes()) {
    out.aggregate_flows += mix.flows;
    out.aggregate_pps += mix.pps;
  }
  out.distinct_flows =
      cluster.MergedFlowMonitor(fleet::Cluster::FlowTap::kRx).DistinctFlows();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::PrintHeader("Fleet scale", "events/sec/node across 12 -> 10k-node fleets");

  Options opt;
  bool full = false;
  int single_nodes = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--full") == 0) {
      full = true;
    }
  }
  for (int i = 1; i + 1 < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--nodes") {
      single_nodes = std::atoi(argv[i + 1]);
    } else if (arg == "--threads") {
      opt.threads = std::atoi(argv[i + 1]);
    } else if (arg == "--duration-ms") {
      opt.duration_ms = std::atof(argv[i + 1]);
    } else if (arg == "--users") {
      opt.users_per_node = std::atof(argv[i + 1]);
    } else if (arg == "--pps") {
      opt.pps_per_user = std::atof(argv[i + 1]);
    } else if (arg == "--flows-per-user") {
      opt.flows_per_user = std::atof(argv[i + 1]);
    } else if (arg == "--perf-json") {
      opt.perf_json_path = argv[i + 1];
    }
  }
  if (single_nodes > 0) {
    opt.nodes = {single_nodes};
  } else if (full) {
    opt.nodes = {12, 256, 1024, 4096, 10240};
  }

  std::vector<PointResult> points;
  points.reserve(opt.nodes.size());
  for (int n : opt.nodes) {
    std::printf("running %d nodes (%.0f ms sim, %d threads)...\n", n, opt.duration_ms,
                opt.threads);
    std::fflush(stdout);
    points.push_back(RunPoint(opt, n));
  }

  // The scaling verdict: wall cost per simulated event. Total event count
  // grows linearly with the fleet, so flat events/sec (equivalently flat
  // us/event) means the simulator is linear in node count — per-node wall
  // rate divided by N would collapse by construction on fixed hardware.
  const PointResult& base = points.front();
  const double base_rate =
      base.wall_ms > 0
          ? static_cast<double>(base.events_total) / (base.wall_ms * 1e-3)
          : 0;

  sim::Table t({"Nodes", "Events", "Ev/node min..max", "Flows (cfg)", "Flows (HLL)",
                "Wall (ms)", "Mev/s", "us/event", "vs base"});
  for (const PointResult& p : points) {
    const double rate =
        p.wall_ms > 0 ? static_cast<double>(p.events_total) / (p.wall_ms * 1e-3) : 0;
    t.AddRow({std::to_string(p.nodes), std::to_string(p.events_total),
              std::to_string(p.events_min) + ".." + std::to_string(p.events_max),
              std::to_string(p.aggregate_flows), sim::Table::Num(p.distinct_flows, 0),
              sim::Table::Num(p.wall_ms, 0), sim::Table::Num(rate / 1e6, 2),
              sim::Table::Num(rate > 0 ? 1e6 / rate : 0, 3),
              base_rate > 0 ? sim::Table::Num(rate / base_rate, 2) + "x" : "-"});
  }
  t.Print();

  // No `threads` key here: thread count is host config and the whole point
  // is that it cannot change these numbers (CI byte-compares t1 vs t4).
  bench::JsonReport json("fleet_scale", argc, argv);
  json.Config("duration_ms", opt.duration_ms);
  json.Config("users_per_node", opt.users_per_node);
  json.Config("pps_per_user", opt.pps_per_user);
  json.Config("flows_per_user", opt.flows_per_user);
  for (const PointResult& p : points) {
    const std::string k = "n" + std::to_string(p.nodes) + ".";
    json.Metric(k + "events_total", static_cast<int64_t>(p.events_total));
    json.Metric(k + "events_per_node_min", static_cast<int64_t>(p.events_min));
    json.Metric(k + "events_per_node_max", static_cast<int64_t>(p.events_max));
    json.Metric(k + "aggregate_flows", static_cast<int64_t>(p.aggregate_flows));
    json.Metric(k + "aggregate_pps", p.aggregate_pps);
    json.Metric(k + "distinct_flows_hll", p.distinct_flows);
  }
  if (!json.Write()) {
    return 1;
  }

  if (!opt.perf_json_path.empty()) {
    // Host-dependent sidecar: wall clock and the derived scaling ratios stay
    // out of the deterministic report (CI byte-compares that one).
    bench::JsonReport perf("fleet_scale_perf", opt.perf_json_path);
    perf.Config("threads", static_cast<int64_t>(opt.threads));
    perf.Config("hw_cores", static_cast<int64_t>(std::thread::hardware_concurrency()));
    for (const PointResult& p : points) {
      const std::string k = "n" + std::to_string(p.nodes) + ".";
      const double rate =
          p.wall_ms > 0 ? static_cast<double>(p.events_total) / (p.wall_ms * 1e-3) : 0;
      perf.Metric(k + "wall_ms", p.wall_ms);
      perf.Metric(k + "events_per_sec", rate);
      perf.Metric(k + "us_per_event", rate > 0 ? 1e6 / rate : 0);
      perf.Metric(k + "rate_vs_base", base_rate > 0 ? rate / base_rate : 0);
    }
    if (!perf.Write()) {
      return 1;
    }
  }

  // The acceptance shape: every sweep point keeps its per-event wall cost
  // within 2x of the smallest fleet's.
  bool shape_ok = true;
  for (const PointResult& p : points) {
    const double rate =
        p.wall_ms > 0 ? static_cast<double>(p.events_total) / (p.wall_ms * 1e-3) : 0;
    if (base_rate > 0 && rate * 2 < base_rate) {
      shape_ok = false;
    }
  }
  std::printf("\n%s: per-event wall cost holds within 2x of the %d-node baseline\n",
              shape_ok ? "PASS" : "SHAPE MISMATCH", base.nodes);
  return shape_ok ? 0 : 1;
}
