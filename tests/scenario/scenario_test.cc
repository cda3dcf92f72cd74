// Scenario engine tests: the TCPT trace format, record -> replay fidelity,
// chaos injection determinism, and the end-to-end DDoS detection story.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/fleet/cluster.h"
#include "src/scenario/chaos.h"
#include "src/scenario/generators.h"
#include "src/scenario/library.h"
#include "src/scenario/scenario.h"
#include "src/scenario/trace_format.h"
#include "src/sim/logging.h"

namespace taichi {
namespace {

fleet::ClusterConfig SmallCluster(int nodes, uint64_t seed) {
  fleet::ClusterConfig cfg;
  cfg.num_nodes = nodes;
  cfg.seed = seed;
  cfg.epoch = sim::Millis(5);
  cfg.node.mode = exp::Mode::kTaiChi;
  return cfg;
}

scenario::PacketRecord MakeRecord(sim::SimTime t, uint16_t node) {
  scenario::PacketRecord rec;
  rec.time = t;
  rec.node = node;
  rec.queue = 3;
  rec.pkt.id = 0x1122334455667788ull;
  rec.pkt.kind = hw::IoKind::kNetTx;
  rec.pkt.size_bytes = 1500;
  rec.pkt.flow = 0xfeedbeefull;
  rec.pkt.user_tag = 0xabcdefull;
  rec.pkt.dp_cost_hint = 250;
  rec.pkt.flow_key.src_ip = 0x0a000001;
  rec.pkt.flow_key.dst_ip = 0xc6336405;  // 198.51.100.5.
  rec.pkt.flow_key.src_port = 1029;
  rec.pkt.flow_key.dst_port = 53;
  rec.pkt.flow_key.proto = 17;
  return rec;
}

// Returns `bytes` with the header's 64-bit record count set to `count`.
std::string WithRecordCount(std::string bytes, uint64_t count) {
  for (int i = 0; i < 8; ++i) {
    bytes[16 + i] = static_cast<char>((count >> (8 * i)) & 0xff);
  }
  return bytes;
}

// Parses `bytes` into a non-empty sentinel trace. A rejected parse must leave
// the sentinel untouched; an accepted one must re-serialize to exactly
// `bytes`. Returns whether the parse was accepted.
bool ParseIsCanonicalOrUntouched(std::string_view bytes) {
  scenario::PacketTrace out;
  out.node_count = 77;
  out.records.push_back(MakeRecord(sim::Micros(1), 9));
  const std::string sentinel = out.Serialize();
  if (!scenario::PacketTrace::Parse(bytes, &out)) {
    EXPECT_EQ(out.Serialize(), sentinel);
    return false;
  }
  EXPECT_EQ(out.Serialize(), bytes);
  return true;
}

// --- TCPT wire format --------------------------------------------------------

TEST(PacketTrace, SerializeParseRoundTripPreservesEveryField) {
  scenario::PacketTrace trace;
  trace.node_count = 4;
  trace.records.push_back(MakeRecord(sim::Micros(10), 0));
  trace.records.push_back(MakeRecord(sim::Micros(10), 2));
  trace.records.push_back(MakeRecord(sim::Micros(11), 1));

  const std::string bytes = trace.Serialize();
  EXPECT_EQ(bytes.size(), scenario::kPacketTraceHeaderBytes +
                              trace.records.size() * scenario::kPacketTraceRecordBytes);

  scenario::PacketTrace parsed;
  ASSERT_TRUE(scenario::PacketTrace::Parse(bytes, &parsed));
  EXPECT_EQ(parsed.node_count, trace.node_count);
  ASSERT_EQ(parsed.records.size(), trace.records.size());
  for (size_t i = 0; i < trace.records.size(); ++i) {
    EXPECT_TRUE(parsed.records[i] == trace.records[i]) << "record " << i;
  }
  // Re-serializing the parse reproduces the bytes: the format is canonical.
  EXPECT_EQ(parsed.Serialize(), bytes);
}

TEST(PacketTrace, ParseRejectsCorruptInput) {
  scenario::PacketTrace trace;
  trace.node_count = 1;
  trace.records.push_back(MakeRecord(sim::Micros(5), 0));
  const std::string good = trace.Serialize();

  scenario::PacketTrace out;
  out.node_count = 77;  // Sentinel: a failed parse must leave `out` untouched.

  std::string bad = good;
  bad[0] ^= 0x01;  // Magic.
  EXPECT_FALSE(scenario::PacketTrace::Parse(bad, &out));

  bad = good;
  bad[4] = 9;  // Version.
  EXPECT_FALSE(scenario::PacketTrace::Parse(bad, &out));

  bad = good;
  bad[12] = 1;  // Reserved header word must be zero.
  EXPECT_FALSE(scenario::PacketTrace::Parse(bad, &out));

  // Truncation: drop the last byte.
  EXPECT_FALSE(scenario::PacketTrace::Parse(
      std::string_view(good.data(), good.size() - 1), &out));

  bad = good;
  bad[scenario::kPacketTraceHeaderBytes + 59] = 1;  // Record pad must be zero.
  EXPECT_FALSE(scenario::PacketTrace::Parse(bad, &out));

  bad = good;
  bad[scenario::kPacketTraceHeaderBytes + 56] = 7;  // Invalid IoKind.
  EXPECT_FALSE(scenario::PacketTrace::Parse(bad, &out));

  // Record counts whose byte size wraps 2^64 back onto the real size:
  // 24 + 2^58 * 64 is 24 and 24 + (2^58 + 1) * 64 is 88 modulo 2^64.
  constexpr uint64_t kWraps = uint64_t{1} << 58;
  EXPECT_FALSE(scenario::PacketTrace::Parse(
      WithRecordCount(good.substr(0, scenario::kPacketTraceHeaderBytes), kWraps), &out));
  EXPECT_FALSE(scenario::PacketTrace::Parse(WithRecordCount(good, kWraps + 1), &out));

  EXPECT_EQ(out.node_count, 77u);
  EXPECT_TRUE(out.records.empty());
  // The pristine bytes still parse.
  EXPECT_TRUE(scenario::PacketTrace::Parse(good, &out));
}

TEST(PacketTrace, MutationCorpusIsRejectedOrCanonical) {
  // A deterministic corpus of damaged traces: every parse either fails and
  // leaves its output alone, or succeeds and re-serializes to its input.
  scenario::PacketTrace trace;
  trace.node_count = 4;
  trace.records.push_back(MakeRecord(sim::Micros(10), 0));
  trace.records.push_back(MakeRecord(sim::Micros(10), 2));
  trace.records.push_back(MakeRecord(sim::Micros(11), 1));
  const std::string good = trace.Serialize();
  constexpr size_t kHeader = scenario::kPacketTraceHeaderBytes;
  constexpr size_t kRecord = scenario::kPacketTraceRecordBytes;
  ASSERT_EQ(good.size(), kHeader + 3 * kRecord);
  EXPECT_TRUE(ParseIsCanonicalOrUntouched(good));

  // Every truncation.
  for (size_t len = 0; len < good.size(); ++len) {
    EXPECT_FALSE(ParseIsCanonicalOrUntouched(std::string_view(good.data(), len)))
        << "truncated to " << len << " bytes";
  }

  // Every single-bit flip in the header and the first record. Flips in the
  // magic, version, reserved word, record count and record padding must be
  // rejected; the node count and the payload fields carry any value.
  size_t accepted = 0;
  for (size_t byte = 0; byte < kHeader + kRecord; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string bad = good;
      bad[byte] = static_cast<char>(bad[byte] ^ (1 << bit));
      const bool ok = ParseIsCanonicalOrUntouched(bad);
      accepted += ok ? 1 : 0;
      const bool node_count = byte >= 8 && byte < 12;
      const bool io_kind = byte == kHeader + 56;  // Valid or not, by value.
      const bool must_reject =
          byte < kHeader ? !node_count : byte >= kHeader + 58;  // Record pad.
      if (must_reject) {
        EXPECT_FALSE(ok) << "flip of bit " << bit << " in byte " << byte;
      } else if (!io_kind) {
        EXPECT_TRUE(ok) << "flip of bit " << bit << " in byte " << byte;
      }
    }
  }
  EXPECT_GT(accepted, 0u);

  // Record counts that disagree with the body, including ones whose byte
  // size wraps 2^64.
  for (const uint64_t count : {uint64_t{0}, uint64_t{2}, uint64_t{4}, uint64_t{1} << 58,
                               (uint64_t{1} << 58) + 1, ~uint64_t{0}}) {
    EXPECT_FALSE(ParseIsCanonicalOrUntouched(WithRecordCount(good, count)))
        << "record count " << count;
  }
}

// --- Record -> replay --------------------------------------------------------

TEST(PacketTrace, ReplayedRunReRecordsByteIdentically) {
  // Record a short live run, replay the trace into a fresh same-shape
  // cluster while re-recording, and require the re-recorded trace to equal
  // the original byte for byte — the format's (and the replayer's)
  // correctness contract.
  scenario::ScenarioOptions opts;
  opts.nodes = 2;
  opts.density = 1;
  opts.seed = 99;
  opts.observed = sim::Millis(60);

  std::string original;
  {
    scenario::ScenarioSpec spec = scenario::BuildScenario("baseline", opts);
    ASSERT_FALSE(spec.name.empty());
    scenario::ScenarioRunner runner(std::move(spec));
    scenario::PacketTraceRecorder recorder(&runner.cluster());
    recorder.Attach();
    runner.Run();
    const scenario::PacketTrace trace = recorder.Finish();
    ASSERT_GT(trace.records.size(), 1000u);
    original = trace.Serialize();
  }

  std::string replayed;
  {
    scenario::PacketTrace trace;
    ASSERT_TRUE(scenario::PacketTrace::Parse(original, &trace));
    scenario::ScenarioSpec spec = scenario::BuildScenario("baseline", opts);
    spec.expect = scenario::ScenarioExpectations{};
    spec.expect.min_fleet_samples = 0;
    auto* raw = new scenario::PacketTraceReplayer(std::move(trace));
    spec.make_source = [raw](fleet::Cluster&) -> std::unique_ptr<scenario::TrafficSource> {
      return std::unique_ptr<scenario::TrafficSource>(raw);
    };
    scenario::ScenarioRunner runner(std::move(spec));
    scenario::PacketTraceRecorder recorder(&runner.cluster());
    recorder.Attach();
    runner.Run();
    EXPECT_EQ(raw->dropped_late(), 0u);
    EXPECT_GT(raw->injected(), 1000u);
    replayed = recorder.Finish().Serialize();
  }

  EXPECT_EQ(original.size(), replayed.size());
  EXPECT_TRUE(original == replayed) << "re-recorded replay diverged from the original trace";
}

TEST(PacketTrace, ReplaySkipsRecordsOnQueuesTheNodeLacks) {
  // A well-formed trace may name an eNIC queue the replaying node does not
  // have. That record is counted as undeliverable, never ingressed, and the
  // replay carries on.
  fleet::Cluster cluster(SmallCluster(1, 7));
  const size_t queues = cluster.node(0).machine().accelerator().queue_count();
  ASSERT_GT(queues, 0u);
  scenario::PacketTrace trace;
  trace.node_count = 1;
  trace.records.push_back(MakeRecord(cluster.Now() + sim::Micros(10), 0));
  trace.records.back().queue = 0;
  trace.records.push_back(MakeRecord(cluster.Now() + sim::Micros(20), 0));
  trace.records.back().queue = static_cast<uint16_t>(queues);

  scenario::PacketTraceReplayer replayer(std::move(trace));
  replayer.Start(cluster);
  cluster.RunFor(sim::Millis(1));
  EXPECT_EQ(replayer.injected(), 1u);
  EXPECT_EQ(replayer.dropped_late(), 1u);
  replayer.Stop(cluster);
}

// --- Cluster crash / restart -------------------------------------------------

TEST(ClusterChaos, CrashAndRestartKeepTheFleetStepping) {
  fleet::Cluster cluster(SmallCluster(3, 21));
  cluster.RunFor(sim::Millis(20));
  EXPECT_EQ(cluster.alive_count(), 3u);
  EXPECT_EQ(cluster.incarnation(1), 1u);

  cluster.CrashNode(1);
  EXPECT_FALSE(cluster.alive(1));
  EXPECT_EQ(cluster.alive_count(), 2u);
  // The fleet keeps stepping with a dead member.
  cluster.RunFor(sim::Millis(20));

  exp::Testbed* fresh = cluster.RestartNode(1);
  ASSERT_NE(fresh, nullptr);
  EXPECT_TRUE(cluster.alive(1));
  EXPECT_EQ(cluster.alive_count(), 3u);
  EXPECT_EQ(cluster.incarnation(1), 2u);
  // The reboot caught the node up to the fleet clock before rejoining.
  EXPECT_EQ(fresh->sim().Now(), cluster.Now());
  const sim::SimTime before = cluster.Now();
  cluster.RunFor(sim::Millis(20));
  EXPECT_GE(cluster.Now(), before + sim::Millis(20));
}

TEST(ClusterChaos, ScriptedChaosFiresAtEpochBoundaries) {
  fleet::Cluster cluster(SmallCluster(3, 22));
  scenario::ChaosConfig cfg;
  cfg.script = {
      {sim::Millis(10), 2, scenario::ChaosAction::Kind::kCrash, 0, 0, 0},
      {sim::Millis(30), 2, scenario::ChaosAction::Kind::kRestart, 0, 0, 0},
  };
  scenario::ChaosEngine chaos(&cluster, cfg);
  chaos.Arm();

  cluster.RunFor(sim::Millis(20));
  EXPECT_EQ(chaos.Count(scenario::ChaosAction::Kind::kCrash), 1);
  EXPECT_FALSE(cluster.alive(2));

  cluster.RunFor(sim::Millis(20));
  EXPECT_EQ(chaos.Count(scenario::ChaosAction::Kind::kRestart), 1);
  EXPECT_TRUE(cluster.alive(2));
  EXPECT_EQ(cluster.alive_count(), 3u);

  ASSERT_EQ(chaos.fired().size(), 2u);
  EXPECT_EQ(chaos.fired()[0].kind, scenario::ChaosAction::Kind::kCrash);
  EXPECT_EQ(chaos.fired()[1].kind, scenario::ChaosAction::Kind::kRestart);
  chaos.Disarm();
}

// --- Generators --------------------------------------------------------------

std::vector<std::string> g_errors;
void CaptureErrors(sim::LogLevel level, sim::SimTime, const char* message) {
  if (level == sim::LogLevel::kError) {
    g_errors.emplace_back(message);
  }
}

// Runs the named scenario's source on a 2-node fleet past the DDoS flood's
// 100 ms switch-on, Start called `starts` times, and returns every node's
// executed-event count.
std::vector<uint64_t> NodeEventsAfterStarts(const std::string& name, int starts) {
  scenario::ScenarioOptions opts;
  opts.nodes = 2;
  scenario::ScenarioSpec spec = scenario::BuildScenario(name, opts);
  fleet::Cluster cluster(spec.cluster);
  std::unique_ptr<scenario::TrafficSource> source = spec.make_source(cluster);
  for (int i = 0; i < starts; ++i) {
    source->Start(cluster);
  }
  EXPECT_TRUE(source->running());
  cluster.RunFor(sim::Millis(120));
  source->Stop(cluster);
  std::vector<uint64_t> events;
  for (size_t i = 0; i < cluster.size(); ++i) {
    events.push_back(cluster.node(i).sim().events_executed());
  }
  return events;
}

TEST(ScenarioGenerators, EverySourceRefusesASecondStart) {
  // One scenario per source class: Fig3Source, DiurnalSource, IncastSource,
  // DdosSource and SurgeSource. The second Start must be refused with an
  // error naming the source, and the run must be the run of one Start.
  const std::pair<const char*, const char*> kSources[] = {
      {"baseline", "fig3-mix"}, {"diurnal", "diurnal"}, {"incast", "incast"},
      {"ddos", "ddos"},         {"autopilot-overload", "surge"}};
  for (const auto& [scenario_name, source_name] : kSources) {
    SCOPED_TRACE(scenario_name);
    const std::vector<uint64_t> once = NodeEventsAfterStarts(scenario_name, 1);
    g_errors.clear();
    const sim::LogSink previous = sim::SetLogSink(&CaptureErrors);
    const std::vector<uint64_t> twice = NodeEventsAfterStarts(scenario_name, 2);
    sim::SetLogSink(previous);
    EXPECT_EQ(twice, once);
    ASSERT_EQ(g_errors.size(), 1u);
    EXPECT_EQ(g_errors[0], std::string(source_name) + ": Start called twice");
  }
}

// --- Determinism -------------------------------------------------------------

TEST(ScenarioDeterminism, CrashChurnVerdictIsByteIdenticalAcrossThreads) {
  // Same seed + same script must give the same faults, the same recoveries
  // and the same verdict bytes whether nodes step serially or on 4 threads.
  scenario::ScenarioOptions opts;
  opts.nodes = 6;
  opts.density = 2;
  opts.seed = 5;  // This seed injects 2 crashes at this scale (deterministic).
  opts.observed = sim::Millis(300);

  std::string json[2];
  int crashes = 0;
  for (int run = 0; run < 2; ++run) {
    opts.threads = run == 0 ? 1 : 4;
    scenario::ScenarioRunner runner(scenario::BuildScenario("crash-churn", opts));
    scenario::ScenarioVerdict v = runner.Run();
    json[run] = v.ToJson();
    crashes = v.crashes;
  }
  EXPECT_TRUE(json[0] == json[1]) << "t1:\n" << json[0] << "t4:\n" << json[1];
  // Vacuity guard: this seed does inject faults (deterministically, so this
  // can never flake).
  EXPECT_GT(crashes, 0);
}

TEST(ScenarioDeterminism, AutopilotVerdictIsByteIdenticalAcrossThreads) {
  // The autopilot's decision loop mutates cross-node state (VM shares,
  // Tai Chi enables, migrations) from its epoch hook; every decision — and
  // therefore the verdict JSON embedding the decision log — must come out
  // byte-identical whether nodes step serially or on 4 threads.
  scenario::ScenarioOptions opts;
  opts.nodes = 6;
  opts.observed = sim::Millis(800);

  std::string json[2];
  uint64_t decisions = 0;
  for (int run = 0; run < 2; ++run) {
    opts.threads = run == 0 ? 1 : 4;
    scenario::ScenarioRunner runner(scenario::BuildScenario("autopilot-overload", opts));
    scenario::ScenarioVerdict v = runner.Run();
    json[run] = v.ToJson();
    decisions = v.autopilot.enables + v.autopilot.sheds + v.autopilot.migrations;
  }
  EXPECT_TRUE(json[0] == json[1]) << "t1:\n" << json[0] << "t4:\n" << json[1];
  // Vacuity guard: the surge deterministically drives the controller to act.
  EXPECT_GT(decisions, 0u);
}

// --- End-to-end detection story ----------------------------------------------

TEST(ScenarioLibrary, DdosScenarioFlagsVictimAndNamesAttackFlows) {
  scenario::ScenarioOptions opts;
  opts.threads = 4;
  opts.observed = sim::Millis(400);
  scenario::ScenarioRunner runner(scenario::BuildScenario("ddos", opts));
  scenario::ScenarioVerdict v = runner.Run();
  EXPECT_GT(v.hotspot_windows, 0u);
  EXPECT_GT(v.attributed_windows, 0u);
  EXPECT_TRUE(v.pass) << v.ToJson();

  // The flood overflowed the victim's rx descriptor ring, the drops are
  // attributed to the victim node, and they surface in the verdict JSON —
  // regression for the era when rx drops were counted nowhere.
  EXPECT_GT(v.rx_ring_drops, 0u);
  ASSERT_FALSE(v.node_rx_ring_drops.empty());
  EXPECT_GT(v.node_rx_ring_drops[0], 0u);  // Node 0 is the configured victim.
  for (size_t i = 1; i < v.node_rx_ring_drops.size(); ++i) {
    EXPECT_EQ(v.node_rx_ring_drops[i], 0u) << "unexpected drops on bystander " << i;
  }
  const std::string json = v.ToJson();
  EXPECT_NE(json.find("\"rx\""), std::string::npos);
  EXPECT_NE(json.find("\"ring_drops\""), std::string::npos);
  EXPECT_NE(json.find("\"per_node_ring_drops\""), std::string::npos);

  // The verdict's attribution is backed by actual attack-range flows in the
  // hotspot node's heavy-hitter list.
  bool named = false;
  for (const fleet::SloMonitor::Report& r : runner.window_reports()) {
    for (int id : r.hotspots) {
      for (const fleet::SloMonitor::HeavyFlow& f : r.nodes[static_cast<size_t>(id)].heavy) {
        named = named || scenario::IsAttackFlow(f);
      }
    }
  }
  EXPECT_TRUE(named);
}

TEST(ScenarioLibrary, UnknownScenarioNameIsRejected) {
  scenario::ScenarioOptions opts;
  scenario::ScenarioSpec spec = scenario::BuildScenario("no-such-scenario", opts);
  EXPECT_TRUE(spec.name.empty());
}

}  // namespace
}  // namespace taichi
