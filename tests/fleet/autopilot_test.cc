// Fleet autopilot: hysteresis, the escalation ladder (enable -> migrate ->
// shed), the migration target rule over the source's VM shares,
// outcome-judged backoff, §8 DP-boost hysteresis, crash evict / readmit /
// re-enable, and decision-log determinism.
//
// The SLO signal is driven through a hand-fed summary (like the SloMonitor
// tests): each "window" adds per-node latency samples and steps the cluster
// across one observation period, so every controller decision is a pure
// function of the fed values.
#include <gtest/gtest.h>

#include <initializer_list>
#include <vector>

#include "src/exp/testbed.h"
#include "src/fleet/autopilot.h"
#include "src/fleet/cluster.h"
#include "src/scenario/chaos.h"
#include "src/scenario/traffic_source.h"

namespace taichi {
namespace {

constexpr int kNodes = 4;
constexpr sim::Duration kWindow = sim::Millis(10);

using Act = fleet::Autopilot::Act;

// Records migrations and carries per-node shares; injects nothing.
class FakeSource : public scenario::TrafficSource {
 public:
  const char* name() const override { return "fake"; }
  void Start(fleet::Cluster&) override { running_ = true; }
  void Stop(fleet::Cluster&) override { running_ = false; }
  bool running() const override { return running_; }

  double VmShare(size_t node) const override { return shares_[node]; }
  bool MigrateVmShare(size_t from, size_t to, double units) override {
    if (shares_[from] < units) {
      return false;
    }
    shares_[from] -= units;
    shares_[to] += units;
    ++migrations_;
    return true;
  }

  std::vector<double> shares_ = std::vector<double>(kNodes, 2.0);
  int migrations_ = 0;

 private:
  bool running_ = false;
};

// Cluster + fed SLO metric + autopilot config tuned for 10 ms windows.
struct Harness {
  Harness() : cluster(ClusterCfg()) {
    for (size_t i = 0; i < cluster.size(); ++i) {
      cluster.observability(i).metrics.AddSummary("test.lat", &lat[i]);
    }
    cfg.slo.metric = "test.lat";
    cfg.slo.percentile = 50.0;
    cfg.slo.threshold = 100.0;
    cfg.slo.min_samples = 2;
    cfg.observe_every = kWindow;
    cfg.hysteresis_windows = 2;
    cfg.settle_windows = 0;
    cfg.cooldown_windows = 1;
    cfg.max_actions_per_window = 4;
  }

  static fleet::ClusterConfig ClusterCfg() {
    fleet::ClusterConfig c;
    c.num_nodes = kNodes;
    c.seed = 7;
    c.epoch = sim::Millis(2);
    return c;
  }

  // One observation window: feed each node's median, step the cluster.
  void Window(std::initializer_list<double> per_node) {
    size_t i = 0;
    for (double v : per_node) {
      lat[i].Add(v);
      lat[i].Add(v);
      ++i;
    }
    cluster.RunFor(kWindow);
  }

  // Node 0 earns Tai Chi (windows 1-2), then improves without leaving the
  // breach (windows 3-4): backoff stays quiet and hysteresis re-accumulates,
  // so window 4 takes the migrate rung.
  void EnableThenMigrateNode0() {
    Window({500, 10, 10, 10});
    Window({500, 10, 10, 10});
    Window({300, 10, 10, 10});
    Window({300, 10, 10, 10});
  }

  // The target of the one migration logged, or -1 if none was.
  static int MigrationTarget(const fleet::Autopilot& ap) {
    int target = -1;
    for (const fleet::Autopilot::Decision& d : ap.decisions()) {
      if (d.act == Act::kMigrate) {
        EXPECT_EQ(target, -1) << "more than one migration";
        target = d.target;
      }
    }
    return target;
  }

  fleet::Cluster cluster;
  sim::Summary lat[kNodes];
  FakeSource src;
  fleet::AutopilotConfig cfg;
};

TEST(Autopilot, BreachMustPersistHysteresisWindowsBeforeEnable) {
  Harness h;
  fleet::Autopilot ap(&h.cluster, h.src, h.cfg);
  ap.Arm();

  h.Window({500, 10, 10, 10});
  EXPECT_EQ(ap.Count(Act::kEnable), 0u) << "one breach window must not trigger";
  EXPECT_FALSE(h.cluster.node(0).taichi_enabled());

  h.Window({500, 10, 10, 10});
  EXPECT_EQ(ap.Count(Act::kEnable), 1u);
  EXPECT_TRUE(h.cluster.node(0).taichi_enabled());
  EXPECT_FALSE(h.cluster.node(1).taichi_enabled());
  ASSERT_FALSE(ap.decisions().empty());
  EXPECT_EQ(ap.decisions()[0].act, Act::kEnable);
  EXPECT_EQ(ap.decisions()[0].node, 0);
}

TEST(Autopilot, MigrationMovesOneUnitToTheLowestIdOnEqualShares) {
  Harness h;
  fleet::Autopilot ap(&h.cluster, h.src, h.cfg);
  ap.Arm();

  h.EnableThenMigrateNode0();

  // Nodes 1-3 hold equal shares: the tie goes to the lowest id, which the
  // decision log's determinism across reruns and thread counts relies on.
  EXPECT_EQ(ap.Count(Act::kMigrate), 1u);
  EXPECT_EQ(h.src.migrations_, 1);
  const fleet::Autopilot::Decision& d = ap.decisions().back();
  EXPECT_EQ(d.act, Act::kMigrate);
  EXPECT_EQ(d.node, 0);
  EXPECT_EQ(d.target, 1);
  EXPECT_EQ(h.src.shares_, (std::vector<double>{1.0, 3.0, 2.0, 2.0}));
}

TEST(Autopilot, MigrationTargetsTheNodeWithTheLeastShare) {
  Harness h;
  h.src.shares_ = {2.0, 3.0, 2.0, 1.0};
  fleet::Autopilot ap(&h.cluster, h.src, h.cfg);
  ap.Arm();

  h.EnableThenMigrateNode0();

  EXPECT_EQ(Harness::MigrationTarget(ap), 3);
  EXPECT_EQ(h.src.shares_, (std::vector<double>{1.0, 3.0, 2.0, 2.0}));
}

TEST(Autopilot, MigrationNeverTargetsAHotspotOrBreachingNode) {
  // Node 1 holds the least share, so it is the target unless its report
  // rules it out. The windows are EnableThenMigrateNode0's, except that
  // windows 3-4 feed node 1 the given samples and anchor the fleet median
  // at 10.
  auto target_when_node1_reports = [](std::initializer_list<double> node1) {
    Harness h;
    h.src.shares_ = {2.0, 1.0, 2.0, 2.0};
    fleet::Autopilot ap(&h.cluster, h.src, h.cfg);
    ap.Arm();
    h.Window({500, 10, 10, 10});
    h.Window({500, 10, 10, 10});
    for (int w = 0; w < 2; ++w) {
      h.lat[0].Add(300);
      h.lat[0].Add(300);
      for (double v : node1) {
        h.lat[1].Add(v);
      }
      for (int k = 0; k < 6; ++k) {
        h.lat[2].Add(10);
        h.lat[3].Add(10);
      }
      h.cluster.RunFor(kWindow);
    }
    return Harness::MigrationTarget(ap);
  };
  // Vacuity guard: a healthy node 1 takes the unit.
  EXPECT_EQ(target_when_node1_reports({10, 10}), 1);
  // 60 is under the SLO but above 1.5x the fleet median: a hotspot.
  EXPECT_EQ(target_when_node1_reports({60, 60}), 2) << "a hotspot must not be the target";
  // One sample over the SLO: breaching, yet too few samples to be a
  // hotspot or to count against the fleet's healthy majority.
  EXPECT_EQ(target_when_node1_reports({150}), 2) << "a breaching node must not be the target";
}

TEST(Autopilot, MigrationOnlyTargetsANodeWithRoomUnderTheCap) {
  {
    // A node at 5 units has room for exactly one more.
    Harness h;
    h.src.shares_ = {2.0, 6.0, 5.0, 6.0};
    fleet::Autopilot ap(&h.cluster, h.src, h.cfg);
    ap.Arm();
    h.EnableThenMigrateNode0();
    EXPECT_EQ(Harness::MigrationTarget(ap), 2);
    EXPECT_EQ(h.src.shares_, (std::vector<double>{1.0, 6.0, 6.0, 6.0}));
  }
  {
    // Every other node is at the cap: nowhere to move, and the fleet is not
    // breaching, so nothing is shed either.
    Harness h;
    h.src.shares_ = {2.0, 6.0, 6.0, 6.0};
    fleet::Autopilot ap(&h.cluster, h.src, h.cfg);
    ap.Arm();
    h.EnableThenMigrateNode0();
    EXPECT_EQ(ap.Count(Act::kMigrate), 0u);
    EXPECT_EQ(ap.Count(Act::kShed), 0u);
    EXPECT_EQ(h.src.migrations_, 0);
    EXPECT_EQ(h.src.shares_, (std::vector<double>{2.0, 6.0, 6.0, 6.0}));
  }
}

TEST(Autopilot, UniformFleetBreachShedsInsteadOfMigrating) {
  Harness h;
  h.cfg.recover_windows = 1;
  fleet::Autopilot ap(&h.cluster, h.src, h.cfg);
  ap.Arm();

  // Everyone breaches: windows 1-2 enable all four nodes, then the fleet
  // keeps drowning. Migration has no healthy majority to move toward, so the
  // ladder must fall through to one bounded shed step.
  for (int w = 0; w < 6; ++w) {
    h.Window({500, 500, 500, 500});
  }
  EXPECT_EQ(ap.Count(Act::kEnable), 4u);
  EXPECT_EQ(ap.Count(Act::kMigrate), 0u);
  EXPECT_GE(ap.Count(Act::kShed), 1u);
  EXPECT_LE(ap.shed_factor(), 1.0 - h.cfg.shed_step);
  EXPECT_GE(ap.shed_factor(), h.cfg.shed_floor);

  // Healthy again: the shed steps are restored, one per qualifying window.
  for (int w = 0; w < 8; ++w) {
    h.Window({10, 10, 10, 10});
  }
  EXPECT_EQ(ap.Count(Act::kRestore), ap.Count(Act::kShed));
  EXPECT_DOUBLE_EQ(ap.shed_factor(), 1.0);
}

TEST(Autopilot, FailedActionsBackOffExponentially) {
  Harness h;
  fleet::Autopilot ap(&h.cluster, h.src, h.cfg);
  ap.Arm();

  // Node 0 never improves, whatever the controller does. Every judged
  // action must log a backoff and stretch the node's cooldown.
  for (int w = 0; w < 12; ++w) {
    h.Window({500, 10, 10, 10});
  }
  EXPECT_GE(ap.Count(Act::kBackoff), 2u);

  // Actions on node 0 (enable, then migrations) must space out: the gap
  // between consecutive remediations grows with the doubling cooldown.
  std::vector<sim::SimTime> acts;
  for (const fleet::Autopilot::Decision& d : ap.decisions()) {
    if (d.node == 0 && (d.act == Act::kEnable || d.act == Act::kMigrate)) {
      acts.push_back(d.at);
    }
  }
  ASSERT_GE(acts.size(), 3u);
  const sim::Duration gap1 = acts[1] - acts[0];
  const sim::Duration gap2 = acts[2] - acts[1];
  EXPECT_GT(gap2, gap1);
}

TEST(Autopilot, DpBoostEngagesOnUtilizationSpikeAndReverts) {
  Harness h;
  fleet::Autopilot ap(&h.cluster, h.src, h.cfg);
  ap.Arm();

  exp::Testbed& bed = h.cluster.node(0);
  bed.EnableTaiChi();
  h.cluster.RunFor(sim::Millis(4));  // vCPU bring-up.

  // Steady DP load well above the on-threshold; two windows of hysteresis.
  bed.StartBackgroundLoad(bed.RateForUtilization(0.7, 1024), 1024,
                          dp::OpenLoopConfig::Process::kConstant);
  h.cluster.RunFor(sim::Millis(60));
  EXPECT_TRUE(bed.dp_boost());
  EXPECT_EQ(ap.Count(Act::kDpBoost), 1u);
  EXPECT_EQ(ap.Count(Act::kDpRevert), 0u);

  // Load gone: utilization collapses under the off-threshold and the boost
  // reverts after the same hysteresis.
  bed.StopBackgroundLoad();
  h.cluster.RunFor(sim::Millis(60));
  EXPECT_FALSE(bed.dp_boost());
  EXPECT_EQ(ap.Count(Act::kDpRevert), 1u);
}

TEST(Autopilot, CrashEvictsAndRestartReadmitsAndReenables) {
  Harness h;
  h.src.shares_[1] = 3.0;
  scenario::ChaosConfig ch;
  ch.script.push_back({sim::Millis(25), 1, scenario::ChaosAction::Kind::kCrash, 0, 0, 0});
  ch.script.push_back({sim::Millis(55), 1, scenario::ChaosAction::Kind::kRestart, 0, 0, 0});
  scenario::ChaosEngine chaos(&h.cluster, ch);
  fleet::Autopilot ap(&h.cluster, h.src, h.cfg);
  chaos.AddListener(&h.src);
  chaos.AddListener(&ap);
  ap.Arm();
  chaos.Arm();

  // Node 1 earns Tai Chi first, so the restart has something to re-enable.
  h.Window({10, 500, 10, 10});
  h.Window({10, 500, 10, 10});
  EXPECT_TRUE(h.cluster.node(1).taichi_enabled());

  // Evict and readmit log the node's whole units and leave its share alone.
  h.cluster.RunFor(sim::Millis(10));  // The scripted crash fires.
  EXPECT_FALSE(h.cluster.alive(1));
  ASSERT_EQ(ap.Count(Act::kEvict), 1u);
  EXPECT_EQ(ap.decisions().back().act, Act::kEvict);
  EXPECT_EQ(ap.decisions().back().node, 1);
  EXPECT_DOUBLE_EQ(ap.decisions().back().value, 3.0);
  EXPECT_EQ(h.src.shares_, (std::vector<double>{2.0, 3.0, 2.0, 2.0}));

  h.cluster.RunFor(sim::Millis(40));  // The scripted restart fires.
  EXPECT_TRUE(h.cluster.alive(1));
  ASSERT_EQ(ap.Count(Act::kReadmit), 1u);
  const fleet::Autopilot::Decision& readmit = ap.decisions()[ap.decisions().size() - 2];
  EXPECT_EQ(readmit.act, Act::kReadmit);
  EXPECT_EQ(readmit.node, 1);
  EXPECT_DOUBLE_EQ(readmit.value, 3.0);
  EXPECT_EQ(h.src.shares_, (std::vector<double>{2.0, 3.0, 2.0, 2.0}));
  EXPECT_TRUE(h.cluster.node(1).taichi_enabled()) << "restart must re-enable Tai Chi";
  EXPECT_EQ(ap.decisions().back().act, Act::kEnable);

  chaos.Disarm();
}

TEST(Autopilot, MigrationNeverTargetsADeadNode) {
  Harness h;
  h.src.shares_[2] = 1.0;  // Alive, node 2 would be the target: the least share.
  scenario::ChaosConfig ch;
  // Node 2 dies before any migration is possible and stays down.
  ch.script.push_back({sim::Millis(5), 2, scenario::ChaosAction::Kind::kCrash, 0, 0, 0});
  scenario::ChaosEngine chaos(&h.cluster, ch);
  fleet::Autopilot ap(&h.cluster, h.src, h.cfg);
  chaos.AddListener(&h.src);
  chaos.AddListener(&ap);
  ap.Arm();
  chaos.Arm();

  for (int w = 0; w < 8; ++w) {
    h.Window({500, 10, 10, 10});
  }
  for (const fleet::Autopilot::Decision& d : ap.decisions()) {
    if (d.act == Act::kMigrate) {
      EXPECT_NE(d.target, 2) << "the dead node must never be a migration target";
    }
  }
  EXPECT_GE(ap.Count(Act::kMigrate), 1u);

  chaos.Disarm();
}

TEST(Autopilot, DecisionLogIsIdenticalAcrossIdenticalRuns) {
  auto run = [] {
    Harness h;
    fleet::Autopilot ap(&h.cluster, h.src, h.cfg);
    ap.Arm();
    h.Window({500, 10, 10, 10});
    h.Window({500, 10, 10, 10});
    h.Window({300, 10, 10, 10});
    h.Window({300, 10, 10, 10});
    for (int w = 0; w < 3; ++w) {
      h.Window({10, 10, 10, 10});
    }
    return ap.decisions();
  };
  const std::vector<fleet::Autopilot::Decision> a = run();
  const std::vector<fleet::Autopilot::Decision> b = run();
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace taichi
