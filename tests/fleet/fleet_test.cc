// Fleet layer: cluster determinism, the load generator's VM-share
// migration, SLO windows and hotspots, staged rollout, runtime
// enable/disable, and fleet metric aggregation.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "src/fleet/cluster.h"
#include "src/fleet/load_gen.h"
#include "src/fleet/rollout.h"
#include "src/fleet/slo_monitor.h"

namespace taichi {
namespace {

// A percentile read off sim::Summary buckets is within this of the exact one.
double Bound(double exact) { return sim::Summary::kRelativeError * exact; }

fleet::ClusterConfig SmallCluster(int nodes, uint64_t seed) {
  fleet::ClusterConfig cfg;
  cfg.num_nodes = nodes;
  cfg.seed = seed;
  cfg.epoch = sim::Millis(2);
  return cfg;
}

// --- Aggregation ---------------------------------------------------------

TEST(FleetAggregation, MergeSummariesIsExactOverUnion) {
  sim::Summary a, b;
  for (double v : {1.0, 2.0, 3.0}) {
    a.Add(v);
  }
  for (double v : {10.0, 20.0}) {
    b.Add(v);
  }
  sim::Summary merged = obs::MergeSummaries({&a, &b, nullptr});
  EXPECT_EQ(merged.count(), 5u);
  EXPECT_DOUBLE_EQ(merged.min(), 1.0);
  EXPECT_DOUBLE_EQ(merged.max(), 20.0);
  EXPECT_NEAR(merged.Percentile(50), 3.0, Bound(3.0));
  EXPECT_DOUBLE_EQ(merged.sum(), 36.0);
}

TEST(FleetAggregation, FindSummaryReturnsRegisteredSummariesOnly) {
  obs::MetricsRegistry registry;
  sim::Summary s;
  s.Add(4.2);
  registry.AddSummary("lat", &s);
  registry.AddGauge("g", [] { return 1.0; });
  ASSERT_NE(registry.FindSummary("lat"), nullptr);
  EXPECT_EQ(registry.FindSummary("lat")->count(), 1u);
  EXPECT_EQ(registry.FindSummary("g"), nullptr);
  EXPECT_EQ(registry.FindSummary("missing"), nullptr);
}

TEST(FleetAggregation, ClusterMergesNodeMetrics) {
  fleet::Cluster cluster(SmallCluster(2, 5));
  // Two startups on node 0, one on node 1.
  cluster.node(0).device_manager().StartVm(cluster.node(0).cp_task_cpus());
  cluster.node(0).device_manager().StartVm(cluster.node(0).cp_task_cpus());
  cluster.node(1).device_manager().StartVm(cluster.node(1).cp_task_cpus());
  cluster.RunFor(sim::Millis(100));
  ASSERT_TRUE(cluster.node(0).device_manager().AllDone());
  ASSERT_TRUE(cluster.node(1).device_manager().AllDone());

  sim::Summary fleet = cluster.MergeSummaryMetric("cp.vm_startup.latency_ms");
  EXPECT_EQ(fleet.count(), 3u);
  EXPECT_DOUBLE_EQ(fleet.sum(), cluster.node(0).device_manager().startup_ms().sum() +
                                    cluster.node(1).device_manager().startup_ms().sum());
}

TEST(LoadGen, DoubleStartDies) {
  // Starting a running LoadGen would stack a second set of arrival streams
  // on every node and silently double the offered load: TAICHI_ERROR +
  // assert, not a quiet no-op.
  fleet::Cluster cluster(SmallCluster(2, 7));
  fleet::LoadGenConfig lcfg;
  lcfg.seed = 7;
  fleet::LoadGen load(&cluster, lcfg);
  load.Start();
  EXPECT_DEATH(load.Start(), "Start called twice");
  load.Stop();
}

TEST(LoadGen, MigrateVmShareMovesExactlyWhatTheDonorHolds) {
  fleet::Cluster cluster(SmallCluster(2, 7));
  fleet::LoadGenConfig lcfg;
  lcfg.seed = 7;
  lcfg.spawn_monitors = false;
  lcfg.node_vm_scale = {1.5, 0.0};
  fleet::LoadGen load(&cluster, lcfg);
  load.Start();
  cluster.RunFor(sim::Millis(100));
  EXPECT_GT(cluster.node(0).device_manager().started(), 0);
  EXPECT_EQ(cluster.node(1).device_manager().started(), 0) << "share 0 takes no arrivals";

  // Refused: more than the donor holds, the same node, a node out of range.
  EXPECT_FALSE(load.MigrateVmShare(0, 1, 2.0));
  EXPECT_FALSE(load.MigrateVmShare(0, 0, 1.0));
  EXPECT_FALSE(load.MigrateVmShare(0, 2, 1.0));
  EXPECT_FALSE(load.MigrateVmShare(2, 0, 1.0));
  EXPECT_DOUBLE_EQ(load.VmShare(0), 1.5);
  EXPECT_DOUBLE_EQ(load.VmShare(1), 0.0);

  // Moved: exactly `units`, and the recipient parked at share 0 starts
  // taking arrivals again.
  EXPECT_TRUE(load.MigrateVmShare(0, 1, 1.0));
  EXPECT_DOUBLE_EQ(load.VmShare(0), 0.5);
  EXPECT_DOUBLE_EQ(load.VmShare(1), 1.0);
  cluster.RunFor(sim::Millis(100));
  EXPECT_GT(cluster.node(1).device_manager().started(), 0);
  load.Stop();
}

TEST(Cluster, FlowTelemetryFlowsThroughPacketPath) {
  // End-to-end: background traffic driven by the LoadGen must land in every
  // node's RX/DP flow sketches via the packet-path taps, and the per-node
  // monitors must roll up into one fleet monitor with exact total counts.
  fleet::Cluster cluster(SmallCluster(2, 7));
  fleet::LoadGenConfig lcfg;
  lcfg.seed = 7;
  lcfg.vm_arrivals = false;
  lcfg.flow_count = 64;
  fleet::LoadGen load(&cluster, lcfg);
  load.Start();
  cluster.RunFor(sim::Millis(20));
  load.Stop();

  uint64_t rx_sum = 0, dp_sum = 0;
  for (size_t i = 0; i < cluster.size(); ++i) {
    const exp::Testbed& bed = cluster.node(i);
    EXPECT_GT(bed.flow_rx().total_packets(), 0u) << "node " << i;
    EXPECT_GT(bed.flow_dp().total_packets(), 0u) << "node " << i;
    // Synthesized 5-tuples spread over many flows, not one blob.
    EXPECT_GT(bed.flow_dp().DistinctFlows(), 10.0) << "node " << i;
    EXPECT_FALSE(bed.flow_dp().TopK(1).empty()) << "node " << i;
    rx_sum += bed.flow_rx().total_packets();
    dp_sum += bed.flow_dp().total_packets();
    // The taps registered their gauges with the node's metrics registry.
    EXPECT_TRUE(cluster.observability(i).metrics.Has("flows.rx.total_packets"));
    EXPECT_TRUE(cluster.observability(i).metrics.Has("flows.dp.distinct_flows"));
    EXPECT_TRUE(cluster.observability(i).metrics.Has("flows.tx.total_bytes"));
  }
  EXPECT_EQ(cluster.MergedFlowMonitor(fleet::Cluster::FlowTap::kRx).total_packets(), rx_sum);
  EXPECT_EQ(cluster.MergedFlowMonitor(fleet::Cluster::FlowTap::kDp).total_packets(), dp_sum);
}

// Packet conservation per node: every packet a background source offered
// was delivered to its VM, shed at the RX ring or the packet arena, or is
// still in the arena (in the pipeline, a ring, a DP burst or the PCIe leg).
// Returns offered minus accounted-for.
int64_t LedgerImbalance(fleet::Cluster& cluster, size_t node) {
  const obs::MetricsSnapshot snap = cluster.observability(node).metrics.Snapshot(cluster.Now());
  auto ends_with = [](const std::string& s, const std::string& tail) {
    return s.size() >= tail.size() && s.compare(s.size() - tail.size(), tail.size(), tail) == 0;
  };
  int64_t injected = 0, delivered = 0;
  for (const obs::MetricSample& m : snap.samples) {
    if (m.name.rfind("src", 0) != 0) {
      continue;
    }
    if (ends_with(m.name, ".injected")) {
      injected += static_cast<int64_t>(m.count);
    } else if (ends_with(m.name, ".delivered")) {
      delivered += static_cast<int64_t>(m.count);
    }
  }
  const int64_t drops = static_cast<int64_t>(snap.Find("rx.ring_drops")->count +
                                             snap.Find("rx.pool_drops")->count);
  const int64_t in_use = static_cast<int64_t>(cluster.node(node).machine().pool().in_use());
  EXPECT_GT(injected, 0) << "node " << node;
  return injected - (delivered + drops + in_use);
}

TEST(Cluster, BackgroundPacketsAreConservedEveryEpoch) {
  for (int threads : {1, 4}) {
    fleet::ClusterConfig cfg = SmallCluster(4, 17);
    cfg.threads = threads;
    fleet::Cluster cluster(cfg);
    fleet::LoadGenConfig lcfg;  // The Fig. 3 mix, DP traffic only.
    lcfg.seed = 17;
    lcfg.vm_arrivals = false;
    fleet::LoadGen load(&cluster, lcfg);
    load.Start();
    int epochs = 0;
    cluster.AddEpochHook([&](sim::SimTime) {
      ++epochs;
      for (size_t i = 0; i < cluster.size(); ++i) {
        EXPECT_EQ(LedgerImbalance(cluster, i), 0) << "node " << i << " epoch " << epochs;
      }
    });
    cluster.RunFor(sim::Millis(40));
    EXPECT_EQ(epochs, 20);
    load.Stop();
    cluster.RunFor(sim::Millis(1));  // Drain what is still in flight.
    for (size_t i = 0; i < cluster.size(); ++i) {
      EXPECT_EQ(cluster.node(i).machine().pool().in_use(), 0u) << "node " << i;
      EXPECT_EQ(LedgerImbalance(cluster, i), 0) << "node " << i;
    }
  }
}

// --- SLO monitor ---------------------------------------------------------

class SloMonitorTest : public ::testing::Test {
 protected:
  SloMonitorTest() : cluster_(SmallCluster(3, 5)) {
    for (size_t i = 0; i < cluster_.size(); ++i) {
      cluster_.observability(i).metrics.AddSummary("test.lat", &lat_[i]);
    }
    cfg_.metric = "test.lat";
    cfg_.percentile = 50.0;
    cfg_.threshold = 100.0;
    cfg_.min_samples = 2;
  }

  fleet::Cluster cluster_;
  sim::Summary lat_[3];
  fleet::SloConfig cfg_;
};

TEST_F(SloMonitorTest, WindowsAdvancePerObserve) {
  fleet::SloMonitor monitor(&cluster_, cfg_);
  lat_[0].Add(10);
  lat_[0].Add(20);
  fleet::SloMonitor::Report r1 = monitor.Observe();
  EXPECT_EQ(r1.total_samples, 2u);
  EXPECT_NEAR(r1.fleet_value, 15.0, Bound(15.0));
  EXPECT_FALSE(r1.fleet_breach);

  // Only samples added after the first Observe count in the second.
  lat_[0].Add(500);
  lat_[1].Add(500);
  fleet::SloMonitor::Report r2 = monitor.Observe();
  EXPECT_EQ(r2.total_samples, 2u);
  EXPECT_NEAR(r2.fleet_value, 500.0, Bound(500.0));
  EXPECT_TRUE(r2.fleet_breach);

  // Empty window: no samples, no breach.
  fleet::SloMonitor::Report r3 = monitor.Observe();
  EXPECT_EQ(r3.total_samples, 0u);
  EXPECT_FALSE(r3.fleet_breach);
}

TEST_F(SloMonitorTest, SubsetRestrictsFleetAggregateNotNodeStats) {
  fleet::SloMonitor monitor(&cluster_, cfg_);
  lat_[0].Add(10);
  lat_[1].Add(1000);
  fleet::SloMonitor::Report r = monitor.Observe({0});
  EXPECT_EQ(r.total_samples, 1u);
  EXPECT_NEAR(r.fleet_value, 10.0, Bound(10.0));
  EXPECT_FALSE(r.fleet_breach);
  // Node 1's own stats are still evaluated.
  EXPECT_EQ(r.nodes[1].samples, 1u);
  EXPECT_TRUE(r.nodes[1].breach);
}

TEST_F(SloMonitorTest, SubsetObserveDoesNotConsumeOtherNodesWindows) {
  // Regression: Observe(subset) used to advance the window cursor of every
  // node, so samples landing on out-of-subset nodes between two subset
  // observations were silently lost to the next evaluation over those nodes.
  fleet::SloMonitor monitor(&cluster_, cfg_);
  lat_[0].Add(10);
  lat_[1].Add(500);  // Arrives while only node 0 is being watched.
  fleet::SloMonitor::Report r1 = monitor.Observe({0});
  EXPECT_EQ(r1.total_samples, 1u);
  EXPECT_NEAR(r1.fleet_value, 10.0, Bound(10.0));

  lat_[1].Add(600);
  // A later window over node 1 must still see BOTH of its samples.
  fleet::SloMonitor::Report r2 = monitor.Observe({1});
  EXPECT_EQ(r2.total_samples, 2u);
  EXPECT_EQ(r2.nodes[1].samples, 2u);
  EXPECT_NEAR(r2.fleet_value, 550.0, Bound(550.0));
  EXPECT_TRUE(r2.fleet_breach);

  // Node 1's window was consumed by r2; node 0's was consumed by r1.
  fleet::SloMonitor::Report r3 = monitor.Observe();
  EXPECT_EQ(r3.total_samples, 0u);
}

TEST_F(SloMonitorTest, InterleavedSubsetsThenFullObserveSeesEverything) {
  fleet::SloMonitor monitor(&cluster_, cfg_);
  lat_[0].Add(1);
  lat_[1].Add(2);
  lat_[2].Add(3);
  EXPECT_EQ(monitor.Observe({0}).total_samples, 1u);
  lat_[0].Add(4);
  EXPECT_EQ(monitor.Observe({1}).total_samples, 1u);
  // Full observe: node 0's post-first-observe sample + node 2's untouched
  // window, nothing double-counted.
  fleet::SloMonitor::Report full = monitor.Observe();
  EXPECT_EQ(full.total_samples, 2u);
  EXPECT_EQ(full.nodes[0].samples, 1u);
  EXPECT_EQ(full.nodes[1].samples, 0u);
  EXPECT_EQ(full.nodes[2].samples, 1u);
}

TEST_F(SloMonitorTest, HotspotReportNamesHeavyFlowsFromSketches) {
  cfg_.hotspot_factor = 2.0;
  cfg_.heavy_hitters = 2;
  fleet::SloMonitor monitor(&cluster_, cfg_);

  // Feed the DP-tap sketches directly (deterministic, no traffic needed):
  // an elephant flow concentrated on node 2, plus cross-node chatter that
  // only the merged fleet sketch can total up.
  auto flow = [](uint32_t i) {
    obs::FlowKey k;
    k.src_ip = 0xc0a80000u | i;
    k.dst_ip = 0x0a000001u;
    k.src_port = static_cast<uint16_t>(5000 + i);
    k.dst_port = 443;
    k.proto = obs::kProtoTcp;
    return k;
  };
  for (int p = 0; p < 100; ++p) {
    cluster_.node(2).flow_dp().OnPacket(flow(1), 1500);  // The elephant.
  }
  for (int p = 0; p < 30; ++p) {
    // Flow 2 is spread across all three nodes: no single node sees it as
    // dominant, but fleet-wide it outweighs everything except the elephant.
    for (size_t n = 0; n < cluster_.size(); ++n) {
      cluster_.node(n).flow_dp().OnPacket(flow(2), 1000);
    }
    cluster_.node(2).flow_dp().OnPacket(flow(3), 100);  // A mouse.
  }

  for (int i = 0; i < 4; ++i) {
    lat_[0].Add(10);
    lat_[1].Add(10);
    lat_[2].Add(90);  // Well above 2x the fleet median, below the SLO.
  }
  fleet::SloMonitor::Report r = monitor.Observe();
  ASSERT_EQ(r.hotspots.size(), 1u);
  ASSERT_EQ(r.hotspots[0], 2);

  // Hotspot node 2: the elephant leads its heavy list with the exact
  // sketch-estimated bytes and its share of the node's DP bytes.
  ASSERT_EQ(r.nodes[2].heavy.size(), 2u);
  EXPECT_EQ(r.nodes[2].heavy[0].key, flow(1));
  EXPECT_EQ(r.nodes[2].heavy[0].bytes, 100u * 1500u);
  EXPECT_EQ(r.nodes[2].heavy[0].packets, 100u);
  const double node2_total = 100.0 * 1500 + 30.0 * 1000 + 30.0 * 100;
  EXPECT_NEAR(r.nodes[2].heavy[0].share, 100.0 * 1500 / node2_total, 1e-9);
  EXPECT_EQ(r.nodes[2].heavy[1].key, flow(2));
  // Non-hotspot nodes carry no flow attribution.
  EXPECT_TRUE(r.nodes[0].heavy.empty());
  EXPECT_TRUE(r.nodes[1].heavy.empty());

  // Fleet scope: merged across nodes, the spread-out flow 2 totals
  // 90 packets and ranks ahead of everything but the elephant.
  ASSERT_EQ(r.fleet_heavy.size(), 2u);
  EXPECT_EQ(r.fleet_heavy[0].key, flow(1));
  EXPECT_EQ(r.fleet_heavy[1].key, flow(2));
  EXPECT_EQ(r.fleet_heavy[1].bytes, 90u * 1000u);
  EXPECT_EQ(r.fleet_heavy[1].packets, 90u);
  EXPECT_GT(r.fleet_heavy[0].share, r.fleet_heavy[1].share);
}

TEST_F(SloMonitorTest, HeavyHittersZeroDisablesFlowAttribution) {
  cfg_.hotspot_factor = 2.0;
  cfg_.heavy_hitters = 0;
  fleet::SloMonitor monitor(&cluster_, cfg_);
  cluster_.node(2).flow_dp().OnPacket(obs::FlowKey{}, 1500);
  for (int i = 0; i < 4; ++i) {
    lat_[0].Add(10);
    lat_[1].Add(10);
    lat_[2].Add(90);
  }
  fleet::SloMonitor::Report r = monitor.Observe();
  ASSERT_EQ(r.hotspots.size(), 1u);
  EXPECT_TRUE(r.nodes[2].heavy.empty());
  EXPECT_TRUE(r.fleet_heavy.empty());
}

TEST(SloMonitor, RestartedNodeWindowHasEveryNewSample) {
  // Regression: the per-node window cursor survived CrashNode/RestartNode,
  // so once the new incarnation held at least as many samples as the old
  // cursor, the new life's first `cursor` samples were never evaluated.
  fleet::Cluster cluster(SmallCluster(2, 5));
  fleet::SloMonitor monitor(&cluster, fleet::SloConfig{});
  auto start_vms = [&cluster](int count) {
    exp::Testbed& bed = cluster.node(0);
    for (int v = 0; v < count; ++v) {
      bed.device_manager().StartVm(bed.cp_task_cpus());
    }
    cluster.RunFor(sim::Millis(200));
    ASSERT_TRUE(bed.device_manager().AllDone());
  };
  start_vms(2);
  EXPECT_EQ(monitor.Observe().nodes[0].samples, 2u);

  cluster.CrashNode(0);
  cluster.RestartNode(0);
  start_vms(3);
  EXPECT_EQ(monitor.Observe().nodes[0].samples, 3u);
}

// --- Cluster determinism -------------------------------------------------

TEST(Cluster, NodePrefixIsIndependentOfClusterSize) {
  struct NodeResult {
    sim::Duration dp_work;
    sim::Summary startups;
  };
  auto drive = [](int nodes) {
    fleet::Cluster cluster(SmallCluster(nodes, 99));
    fleet::LoadGenConfig lcfg;
    lcfg.seed = 99;
    lcfg.vm_arrival_rate_per_sec = 150.0;
    fleet::LoadGen load(&cluster, lcfg);
    load.Start();
    cluster.RunFor(sim::Millis(60));
    load.Stop();
    std::vector<NodeResult> out;
    for (size_t i = 0; i < cluster.size(); ++i) {
      out.push_back({cluster.node(i).TotalDpWork(),
                     cluster.node(i).device_manager().startup_ms()});
    }
    return out;
  };
  // Building the larger cluster must not change what the first nodes do.
  std::vector<NodeResult> small = drive(2);
  std::vector<NodeResult> large = drive(3);
  for (size_t i = 0; i < small.size(); ++i) {
    EXPECT_EQ(small[i].dp_work, large[i].dp_work) << "node " << i;
    EXPECT_TRUE(small[i].startups == large[i].startups) << "node " << i;
  }
}

TEST(Cluster, SameSeedRunsAreByteIdentical) {
  auto run = [] {
    fleet::ClusterConfig cfg = SmallCluster(2, 31);
    cfg.enable_trace = true;
    cfg.trace_capacity = 1 << 10;
    fleet::Cluster cluster(cfg);
    fleet::LoadGenConfig lcfg;
    lcfg.seed = 31;
    lcfg.vm_arrival_rate_per_sec = 150.0;
    fleet::LoadGen load(&cluster, lcfg);
    load.Start();
    cluster.RunFor(sim::Millis(40));
    load.Stop();
    std::string trace = cluster.MergedTraceJson();
    std::string metrics;
    for (size_t i = 0; i < cluster.size(); ++i) {
      metrics += cluster.observability(i).metrics.Snapshot(cluster.Now()).ToJson();
    }
    return std::pair(trace, metrics);
  };
  auto [trace1, metrics1] = run();
  auto [trace2, metrics2] = run();
  EXPECT_EQ(trace1, trace2);
  EXPECT_EQ(metrics1, metrics2);
}

// The tentpole contract: a parallel run is byte-identical to a serial run —
// metrics JSON, merged Chrome trace, and the rollout wave log. Each node
// owns its clock/Rng/observability, so thread count must not be observable
// in any output.
TEST(Cluster, ParallelRunIsByteIdenticalToSerial) {
  struct Output {
    std::string trace;
    std::string metrics;
    std::string wave_log;
  };
  auto run = [](int threads) {
    fleet::ClusterConfig cfg = SmallCluster(4, 23);
    cfg.enable_trace = true;
    cfg.trace_capacity = 1 << 10;
    cfg.threads = threads;
    fleet::Cluster cluster(cfg);

    fleet::LoadGenConfig lcfg;
    lcfg.seed = 23;
    lcfg.vm_arrival_rate_per_sec = 200.0;
    fleet::LoadGen load(&cluster, lcfg);
    load.Start();
    cluster.RunFor(sim::Millis(20));

    fleet::RolloutConfig rcfg;
    rcfg.waves = {1, 4};
    rcfg.settle = sim::Millis(10);
    rcfg.soak = sim::Millis(20);
    rcfg.slo.threshold = 1e9;
    rcfg.slo.min_samples = 1;
    fleet::Rollout rollout(&cluster, rcfg);
    rollout.Start();
    cluster.RunFor(sim::Millis(150));
    load.Stop();
    EXPECT_EQ(rollout.state(), fleet::Rollout::State::kDone);

    Output out;
    out.trace = cluster.MergedTraceJson();
    for (size_t i = 0; i < cluster.size(); ++i) {
      out.metrics += cluster.observability(i).metrics.Snapshot(cluster.Now()).ToJson();
    }
    for (const fleet::Rollout::Event& e : rollout.history()) {
      out.wave_log += std::to_string(e.at) + " " + e.what + "\n";
    }
    return out;
  };
  Output serial = run(1);
  Output parallel = run(4);
  EXPECT_EQ(serial.trace, parallel.trace);
  EXPECT_EQ(serial.metrics, parallel.metrics);
  EXPECT_EQ(serial.wave_log, parallel.wave_log);
  EXPECT_FALSE(serial.wave_log.empty());
}

TEST(Cluster, OversizedThreadCountClampsToNodes) {
  fleet::ClusterConfig cfg = SmallCluster(2, 7);
  cfg.threads = 64;  // More threads than nodes: clamp, don't spawn idlers.
  fleet::Cluster cluster(cfg);
  EXPECT_EQ(cluster.config().threads, 2);
  cluster.RunFor(sim::Millis(6));
  EXPECT_EQ(cluster.node(0).sim().Now(), cluster.Now());
  EXPECT_EQ(cluster.node(1).sim().Now(), cluster.Now());
}

TEST(Cluster, EpochHooksFireAtEveryBoundaryAndCanBeRemoved) {
  fleet::Cluster cluster(SmallCluster(2, 3));
  std::vector<sim::SimTime> fired;
  uint64_t id = cluster.AddEpochHook([&](sim::SimTime at) { fired.push_back(at); });
  const sim::SimTime start = cluster.Now();
  // A 3 ms timer straddles the 2 ms epochs and must still fire on time.
  sim::Simulation* node0 = &cluster.node(0).sim();
  std::vector<sim::SimTime> ticks;
  node0->ScheduleRepeating(sim::Millis(3), [&ticks, node0] { ticks.push_back(node0->Now()); });
  cluster.RunFor(sim::Millis(6));  // Three 2 ms epochs.
  ASSERT_EQ(fired.size(), 3u);
  EXPECT_EQ(fired[0], start + sim::Millis(2));
  EXPECT_EQ(fired[2], start + sim::Millis(6));
  EXPECT_EQ(cluster.node(0).sim().Now(), cluster.Now());
  EXPECT_EQ(cluster.node(1).sim().Now(), cluster.Now());

  cluster.RemoveEpochHook(id);
  cluster.RunFor(sim::Millis(4));
  EXPECT_EQ(fired.size(), 3u);
  EXPECT_EQ(ticks, (std::vector<sim::SimTime>{start + sim::Millis(3), start + sim::Millis(6),
                                              start + sim::Millis(9)}));
  EXPECT_EQ(cluster.node(0).sim().Now(), start + sim::Millis(10));
  EXPECT_EQ(cluster.node(1).sim().Now(), start + sim::Millis(10));
}

TEST(Cluster, EpochBoundaryShrinksNodeEventPools) {
  fleet::Cluster cluster(SmallCluster(2, 3));
  sim::Simulation& sim = cluster.node(0).sim();
  // A burst of scheduled-then-cancelled work (a VM-startup storm's wake)
  // leaves the slot table mostly free; the next epoch boundary gives the
  // memory back.
  std::vector<sim::EventId> burst;
  for (int i = 0; i < 4096; ++i) {
    burst.push_back(sim.Schedule(sim::Seconds(10) + i, [] {}));
  }
  for (sim::EventId id : burst) {
    sim.Cancel(id);
  }
  const size_t before = sim.event_pool_slots();
  ASSERT_GE(before, 4096u);
  cluster.RunFor(sim::Millis(2));  // One epoch.
  EXPECT_LT(sim.event_pool_slots(), before);
}

// --- Flow-aggregate load generation --------------------------------------

TEST(LoadGen, AggregateModeBuildsFleetDistinctFlowPopulations) {
  fleet::ClusterConfig cfg = SmallCluster(4, 17);
  fleet::Cluster cluster(cfg);
  fleet::LoadGenConfig lcfg;
  lcfg.seed = 17;
  lcfg.vm_arrivals = false;
  lcfg.spawn_monitors = false;
  lcfg.aggregate.enabled = true;
  lcfg.aggregate.users_per_node = 200.0;
  lcfg.aggregate.pps_per_user = 200.0;
  lcfg.aggregate.flows_per_user = 1.0;
  fleet::LoadGen load(&cluster, lcfg);
  load.Start();
  ASSERT_EQ(load.node_mixes().size(), cluster.size());
  uint64_t population = 0;
  for (const fleet::LoadGen::NodeMix& mix : load.node_mixes()) {
    EXPECT_GT(mix.pps, 0.0);
    EXPECT_GT(mix.util, 0.0);
    // ~200 flows per node, spread across the node's DP CPUs.
    EXPECT_NEAR(static_cast<double>(mix.flows), 200.0, 8.0);
    population += mix.flows;
  }
  cluster.RunFor(sim::Millis(120));
  load.Stop();
  // The merged RX sketch must see close to the full fleet population: the
  // per-node salts make every node's flows distinct, so the fleet count
  // scales with node count instead of aliasing onto one node's population.
  const double distinct =
      cluster.MergedFlowMonitor(fleet::Cluster::FlowTap::kRx).DistinctFlows();
  EXPECT_GT(distinct, 0.80 * static_cast<double>(population));
  EXPECT_LT(distinct, 1.10 * static_cast<double>(population));
}

TEST(LoadGen, AggregateModeParallelRunIsByteIdenticalToSerial) {
  auto run = [](int threads) {
    fleet::ClusterConfig cfg = SmallCluster(4, 29);
    cfg.threads = threads;
    fleet::Cluster cluster(cfg);
    fleet::LoadGenConfig lcfg;
    lcfg.seed = 29;
    lcfg.aggregate.enabled = true;
    lcfg.aggregate.users_per_node = 150.0;
    lcfg.aggregate.pps_per_user = 100.0;
    lcfg.vm_arrival_rate_per_sec = 100.0;
    fleet::LoadGen load(&cluster, lcfg);
    load.Start();
    cluster.RunFor(sim::Millis(60));
    load.Stop();
    std::string out = cluster.MergedFlowMonitor(fleet::Cluster::FlowTap::kRx).ToJson(8);
    for (size_t i = 0; i < cluster.size(); ++i) {
      out += cluster.observability(i).metrics.Snapshot(cluster.Now()).ToJson();
      out += std::to_string(cluster.node(i).sim().events_executed());
    }
    return out;
  };
  EXPECT_EQ(run(1), run(4));
}

// --- Runtime enable/disable and rollout ----------------------------------

TEST(RuntimeTaiChi, EnableDisableReenableQuiesces) {
  fleet::Cluster cluster(SmallCluster(1, 11));
  exp::Testbed& bed = cluster.node(0);
  EXPECT_FALSE(bed.taichi_enabled());

  bed.EnableTaiChi();
  cluster.RunFor(sim::Millis(5));
  EXPECT_TRUE(bed.taichi_enabled());
  ASSERT_NE(bed.taichi(), nullptr);

  // Workflows started while enabled complete on the widened CP set.
  bed.device_manager().StartVm(bed.cp_task_cpus());
  cluster.RunFor(sim::Millis(50));
  EXPECT_TRUE(bed.device_manager().AllDone());

  bed.DisableTaiChi();
  EXPECT_TRUE(bed.taichi_draining());
  cluster.RunFor(sim::Millis(20));
  EXPECT_FALSE(bed.taichi_enabled());
  EXPECT_FALSE(bed.taichi_draining());
  EXPECT_EQ(bed.taichi(), nullptr);

  // A second generation comes up cleanly after the first was destroyed.
  bed.EnableTaiChi();
  cluster.RunFor(sim::Millis(5));
  EXPECT_TRUE(bed.taichi_enabled());
  bed.device_manager().StartVm(bed.cp_task_cpus());
  cluster.RunFor(sim::Millis(50));
  EXPECT_TRUE(bed.device_manager().AllDone());
}

class RolloutTest : public ::testing::Test {
 protected:
  static fleet::Cluster MakeCluster() {
    fleet::ClusterConfig cfg = SmallCluster(2, 17);
    return fleet::Cluster(cfg);
  }

  static fleet::LoadGenConfig LoadCfg() {
    fleet::LoadGenConfig lcfg;
    lcfg.seed = 17;
    lcfg.vm_arrival_rate_per_sec = 200.0;
    return lcfg;
  }

  static fleet::RolloutConfig RolloutCfg(double threshold) {
    fleet::RolloutConfig rcfg;
    rcfg.waves = {1, 2};
    rcfg.settle = sim::Millis(10);
    rcfg.soak = sim::Millis(20);
    rcfg.slo.threshold = threshold;
    rcfg.slo.min_samples = 1;
    return rcfg;
  }
};

TEST_F(RolloutTest, ConvergesWhenSloHolds) {
  fleet::Cluster cluster = MakeCluster();
  fleet::LoadGen load(&cluster, LoadCfg());
  load.Start();
  cluster.RunFor(sim::Millis(20));

  fleet::Rollout rollout(&cluster, RolloutCfg(/*threshold=*/1e9));
  rollout.Start();
  EXPECT_EQ(rollout.state(), fleet::Rollout::State::kSoaking);
  cluster.RunFor(sim::Millis(200));
  load.Stop();

  EXPECT_EQ(rollout.state(), fleet::Rollout::State::kDone);
  EXPECT_EQ(rollout.gate_reports().size(), 2u);
  EXPECT_TRUE(cluster.node(0).taichi_enabled());
  EXPECT_TRUE(cluster.node(1).taichi_enabled());
}

TEST_F(RolloutTest, RollsBackOnInjectedSloBreach) {
  fleet::Cluster cluster = MakeCluster();
  fleet::LoadGen load(&cluster, LoadCfg());
  load.Start();
  cluster.RunFor(sim::Millis(20));

  // An impossible SLO: the first completed startup breaches the gate.
  fleet::Rollout rollout(&cluster, RolloutCfg(/*threshold=*/1e-6));
  rollout.Start();
  EXPECT_TRUE(cluster.node(0).taichi_enabled());
  cluster.RunFor(sim::Millis(200));
  load.Stop();

  EXPECT_EQ(rollout.state(), fleet::Rollout::State::kRolledBack);
  ASSERT_EQ(rollout.gate_reports().size(), 1u);
  EXPECT_TRUE(rollout.gate_reports()[0].fleet_breach);
  // The canary drained back to the baseline; node 1 was never touched.
  EXPECT_FALSE(cluster.node(0).taichi_enabled());
  EXPECT_FALSE(cluster.node(0).taichi_draining());
  EXPECT_EQ(cluster.node(0).taichi(), nullptr);
  EXPECT_FALSE(cluster.node(1).taichi_enabled());
}

}  // namespace
}  // namespace taichi
