// End-to-end integration: the full SmartNIC stack per scheduling mode.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/cp/synth_cp.h"
#include "src/exp/runners.h"
#include "src/exp/testbed.h"

namespace taichi::exp {
namespace {

TestbedConfig BaseConfig(Mode mode, uint64_t seed = 42) {
  TestbedConfig cfg;
  cfg.mode = mode;
  cfg.seed = seed;
  return cfg;
}

TEST(TestbedTest, TopologyMatchesTable4) {
  Testbed bed(BaseConfig(Mode::kBaseline));
  EXPECT_EQ(bed.kernel().num_cpus(), 12);
  EXPECT_EQ(bed.active_dp_cpus().size(), 8u);
  EXPECT_EQ(bed.cp_pcpu_set().count(), 4);
  EXPECT_EQ(bed.cp_task_cpus().count(), 4);  // Static partition.
}

TEST(TestbedTest, TaiChiAddsVcpusToControlPlane) {
  Testbed bed(BaseConfig(Mode::kTaiChi));
  ASSERT_NE(bed.taichi(), nullptr);
  // 8 vCPUs + 4 CP pCPUs.
  EXPECT_EQ(bed.cp_task_cpus().count(), 12);
  // All vCPUs online after bring-up.
  for (const auto& v : bed.taichi()->pool().vcpus()) {
    EXPECT_TRUE(bed.kernel().cpu_online(v.cpu));
  }
}

TEST(TestbedTest, Type2StealsDataPlaneCpus) {
  Testbed bed(BaseConfig(Mode::kType2));
  EXPECT_EQ(bed.active_dp_cpus().size(), 6u);  // 8 - 2 emulation CPUs.
}

TEST(TestbedTest, BaselinePingRttLandsNearTable5) {
  Testbed bed(BaseConfig(Mode::kBaseline));
  PingRunner ping(&bed);
  sim::Summary rtt = ping.Run(200, sim::Millis(1));
  ASSERT_EQ(rtt.count(), 200u);
  // Table 5 baseline: min 26, avg 30, max 38 us. Allow generous bands.
  EXPECT_GT(rtt.min(), 20.0);
  EXPECT_LT(rtt.min(), 32.0);
  EXPECT_GT(rtt.mean(), 24.0);
  EXPECT_LT(rtt.mean(), 40.0);
  EXPECT_LT(rtt.max(), 50.0);
}

TEST(TestbedTest, TaiChiStealsIdleCyclesForSynthCp) {
  // With 30% DP utilization, Tai Chi must finish 16 concurrent 50 ms tasks
  // substantially faster than the 4-CPU static baseline.
  auto run = [](Mode mode) {
    Testbed bed(BaseConfig(mode));
    return RunSynthCp(&bed, /*concurrency=*/16, /*dp_utilization=*/0.3);
  };
  SynthCpResult base = run(Mode::kBaseline);
  SynthCpResult taichi = run(Mode::kTaiChi);
  ASSERT_EQ(base.exec_time_ms.count(), 16u);
  ASSERT_EQ(taichi.exec_time_ms.count(), 16u);
  EXPECT_LT(taichi.exec_time_ms.mean(), base.exec_time_ms.mean() * 0.7);
}

TEST(TestbedTest, TaiChiKeepsPingRttNearBaseline) {
  // Sustained CP pressure so vCPUs regularly occupy the DP CPUs (the
  // regime where the HW probe matters, §6.4).
  auto run = [](Mode mode) {
    TestbedConfig cfg = BaseConfig(mode);
    cfg.monitors.count = 12;
    cfg.monitors.period_mean = sim::Micros(300);
    cfg.monitors.user_work_mean = sim::Micros(60);
    Testbed bed(cfg);
    bed.SpawnBackgroundCp();
    bed.sim().RunFor(sim::Millis(5));
    PingRunner ping(&bed);
    return ping.Run(300, sim::Millis(1));
  };
  sim::Summary base = run(Mode::kBaseline);
  sim::Summary taichi = run(Mode::kTaiChi);
  sim::Summary no_probe = run(Mode::kTaiChiNoHwProbe);
  // With the HW probe, Tai Chi stays within a few percent of baseline.
  EXPECT_LT(taichi.mean(), base.mean() * 1.10);
  EXPECT_LT(taichi.max(), base.max() * 1.3);
  // Without it, vCPU residency inflates the tail dramatically (Table 5).
  EXPECT_GT(no_probe.max(), taichi.max() * 1.5);
  EXPECT_GT(no_probe.mean(), taichi.mean() + 1.0);
}

TEST(TestbedTest, FioClosedLoopProducesIops) {
  Testbed bed(BaseConfig(Mode::kBaseline));
  FioRunner fio(&bed, FioConfig{});
  FioResult result = fio.Run(sim::Millis(100), sim::Millis(20));
  EXPECT_GT(result.iops, 50000.0);
  EXPECT_GT(result.io_latency_us.mean(), 70.0);  // At least the backend.
}

TEST(TestbedTest, StreamSaturatesDataPlane) {
  Testbed bed(BaseConfig(Mode::kBaseline));
  StreamConfig scfg;
  scfg.per_cpu_offered_pps = 2.0e6;  // Well above per-CPU capacity.
  StreamRunner stream(&bed, scfg);
  StreamResult result = stream.Run(sim::Millis(50), sim::Millis(20));
  // Per-CPU capacity is roughly 1 / (0.9us + 1400B * 0.05ns) ~= 1.03 Mpps.
  double per_cpu = result.delivered_pps / 8.0;
  EXPECT_GT(per_cpu, 0.7e6);
  EXPECT_LT(per_cpu, 1.3e6);
}

TEST(TestbedTest, RrClosedLoopCountsTransactions) {
  Testbed bed(BaseConfig(Mode::kBaseline));
  RrConfig rcfg;
  rcfg.connections = 32;
  RrRunner rr(&bed, rcfg);
  RrResult result = rr.Run(sim::Millis(100), sim::Millis(20));
  EXPECT_GT(result.txn_per_sec, 100000.0);
  EXPECT_NEAR(result.rx_pps, result.tx_pps, result.rx_pps * 0.05);
}

TEST(TestbedTest, VmStartupStormCompletes) {
  Testbed bed(BaseConfig(Mode::kBaseline));
  VmStartupResult result = RunVmStartupStorm(&bed, /*num_vms=*/20,
                                             /*arrival_rate_per_sec=*/200,
                                             /*dp_utilization=*/0.2);
  ASSERT_EQ(result.startup_ms.count(), 20u);
  EXPECT_GT(result.startup_ms.mean(), 1.0);
}

TEST(TestbedTest, EnableTaiChiDuringDrainDies) {
  // Re-enabling while the previous disable is still draining would install
  // a second framework on vCPUs the drain poll is about to destroy.
  Testbed bed(BaseConfig(Mode::kBaseline));
  bed.EnableTaiChi();
  bed.sim().RunFor(sim::Millis(5));  // vCPU bring-up completes.
  ASSERT_TRUE(bed.taichi_enabled());
  bed.DisableTaiChi();
  ASSERT_TRUE(bed.taichi_draining());
  EXPECT_DEATH(bed.EnableTaiChi(), "still draining");
}

TEST(TestbedTest, SetDpBoostRoundTripNarrowsAndWidensCpAffinity) {
  Testbed bed(BaseConfig(Mode::kBaseline));
  bed.EnableTaiChi();
  bed.sim().RunFor(sim::Millis(5));
  ASSERT_TRUE(bed.taichi_enabled());
  const int widened = bed.cp_task_cpus().count();
  EXPECT_GT(widened, bed.cp_pcpu_set().count());

  // Boost on: donations pause, CP falls back to the static partition.
  bed.SetDpBoost(true);
  EXPECT_TRUE(bed.dp_boost());
  EXPECT_EQ(bed.cp_task_cpus().count(), bed.cp_pcpu_set().count());

  // Boost off: the probes re-attach and CP affinity widens again.
  bed.SetDpBoost(false);
  EXPECT_FALSE(bed.dp_boost());
  EXPECT_EQ(bed.cp_task_cpus().count(), widened);

  // A disable supersedes any boost.
  bed.SetDpBoost(true);
  ASSERT_TRUE(bed.dp_boost());
  bed.DisableTaiChi();
  EXPECT_FALSE(bed.dp_boost());
  bed.sim().RunFor(sim::Millis(5));  // The drain completes.
  EXPECT_FALSE(bed.taichi_draining());
  EXPECT_FALSE(bed.taichi_enabled());
}

// Buffered "guest_exit" instants: one per VM-exit the vCPU scheduler handled.
size_t GuestExitInstants(const obs::TraceRecorder& trace) {
  size_t n = 0;
  for (const obs::TraceEvent& e : trace.Events()) {
    n += e.phase == 'i' && e.name == "guest_exit" ? 1 : 0;
  }
  return n;
}

TEST(TestbedTest, GuestExitsReachTheSchedulerUntilTeardown) {
  // While Tai Chi is installed, its vCPU scheduler handles every VM-exit and
  // halt on the kernel; once it is torn down, the kernel's default exit path
  // resumes the host and nothing of the scheduler is called.
  Testbed bed(BaseConfig(Mode::kTaiChi, 7));
  obs::Observability obs(/*trace_capacity=*/1 << 20);
  obs.trace.set_enabled(true);
  bed.AttachObservability(&obs);
  bed.StartBackgroundBurstyLoad(0.30, 512);
  bed.SpawnBackgroundCp();
  cp::SynthCpConfig scfg;
  scfg.task_demand = sim::Millis(5);
  scfg.iterations = 4;
  cp::SynthCpBenchmark synth(&bed.kernel(), scfg, 99);
  synth.Launch(8, bed.cp_task_cpus());
  bed.sim().RunFor(sim::Millis(30));
  // Stop where no pCPU is partway through a VM-exit, so every exit counted
  // so far has reached its handler.
  os::Kernel& kernel = bed.kernel();
  auto mid_transition = [&] {
    for (os::CpuId p = 0; p < static_cast<os::CpuId>(bed.machine().num_cpus()); ++p) {
      if (!kernel.CpuInHostMode(p) && kernel.guest_of(p) == os::kInvalidCpu) {
        return true;
      }
    }
    return false;
  };
  for (int i = 0; i < 1000 && mid_transition(); ++i) {
    bed.sim().RunFor(sim::Micros(1));
  }
  ASSERT_FALSE(mid_transition());
  ASSERT_EQ(obs.trace.overwritten(), 0u);
  EXPECT_GT(kernel.guest_exits(), 0u);
  EXPECT_EQ(GuestExitInstants(obs.trace), kernel.guest_exits());
  EXPECT_GT(bed.taichi()->scheduler().halts(), 0u);

  // Tear Tai Chi down: drain with the load off, then destroy it.
  const os::CpuId vcpu = bed.taichi()->pool().vcpus()[0].cpu;
  bed.StopBackgroundLoad();
  bed.DisableTaiChi();
  for (int i = 0; i < 200 && bed.taichi() != nullptr; ++i) {
    bed.sim().RunFor(sim::Millis(1));
  }
  ASSERT_EQ(bed.taichi(), nullptr);
  bed.sim().RunFor(sim::Millis(1));

  // A manual guest episode on an idle vCPU: it stays backed (no halt handler
  // exits it), and its exit resumes the host without a scheduler instant.
  const os::CpuId pcpu = bed.active_dp_cpus()[0];
  ASSERT_TRUE(kernel.CpuInHostMode(pcpu));
  const size_t instants = GuestExitInstants(obs.trace);
  const uint64_t exits = kernel.guest_exits();
  kernel.EnterGuest(pcpu, vcpu);
  bed.sim().RunFor(sim::Micros(20));
  EXPECT_EQ(kernel.guest_of(pcpu), vcpu);
  kernel.ExitGuest(pcpu, os::GuestExitReason::kForced);
  bed.sim().RunFor(sim::Micros(20));
  EXPECT_TRUE(kernel.CpuInHostMode(pcpu));
  EXPECT_EQ(kernel.guest_of(pcpu), os::kInvalidCpu);
  EXPECT_FALSE(kernel.cpu_backed(vcpu));
  EXPECT_EQ(kernel.guest_exits(), exits + 1);
  EXPECT_EQ(GuestExitInstants(obs.trace), instants);
}

TEST(TestbedTest, MixedBurstKeepsPerPacketDeliveryOrder) {
  // One DP burst [rx1 rx2 tx3 rx4 blk5 rx6 rx7]. With one PCIe delivery
  // event per kNetRx packet, all scheduled at T = completion + pcie_dma_cost
  // in burst order, T runs rx1 rx2 rx4, then the marker blk5's storage sink
  // scheduled for T (after rx4's event, before rx6's), then rx6 rx7; events
  // the VM sink schedules for T run after all of them. The wire sink gets
  // tx3 after serialization and wire latency. Every handle is freed.
  Testbed bed(BaseConfig(Mode::kBaseline));
  constexpr uint16_t kOwner = 7;
  std::vector<std::string> log;
  std::vector<sim::SimTime> vm_times;
  sim::SimTime completed = -1;
  bed.RegisterVmSink(kOwner, [&](const hw::IoPacket& pkt, sim::SimTime t) {
    log.push_back("rx" + std::to_string(pkt.id));
    vm_times.push_back(t);
    bed.sim().Schedule(0, [&log, id = pkt.id] { log.push_back("after" + std::to_string(id)); });
  });
  bed.RegisterStorageSink(kOwner, [&](const hw::IoPacket& pkt, sim::SimTime t) {
    log.push_back("blk" + std::to_string(pkt.id));
    completed = t;
    bed.sim().Schedule(bed.config().pcie_dma_cost, [&log] { log.push_back("marker"); });
  });
  bed.RegisterWireSink(kOwner, [&](const hw::IoPacket& pkt, sim::SimTime) {
    log.push_back("tx" + std::to_string(pkt.id));
  });

  const hw::IoKind kinds[] = {hw::IoKind::kNetRx, hw::IoKind::kNetRx, hw::IoKind::kNetTx,
                              hw::IoKind::kNetRx, hw::IoKind::kBlockIo, hw::IoKind::kNetRx,
                              hw::IoKind::kNetRx};
  const uint32_t queue = bed.queue_for_flow(0);
  for (uint64_t id = 1; id <= 7; ++id) {
    hw::IoPacket pkt;
    pkt.id = id;
    pkt.kind = kinds[id - 1];
    pkt.queue = queue;
    pkt.user_tag = Testbed::Tag(kOwner, id);
    const sim::PacketHandle h = bed.machine().pool().Alloc(pkt);
    ASSERT_NE(h, sim::kInvalidPacketHandle);
    // Straight onto the ring before the service first polls: one burst.
    ASSERT_TRUE(bed.machine().accelerator().ring(queue).Push(h));
  }
  bed.sim().RunFor(sim::Millis(1));

  EXPECT_EQ(bed.service(0).packets_processed(), 7u);
  EXPECT_EQ(log, (std::vector<std::string>{"blk5", "rx1", "rx2", "rx4", "marker", "rx6", "rx7",
                                           "after1", "after2", "after4", "after6", "after7",
                                           "tx3"}));
  ASSERT_GE(completed, 0);
  for (sim::SimTime t : vm_times) {
    EXPECT_EQ(t, completed + bed.config().pcie_dma_cost);
  }
  EXPECT_EQ(bed.machine().pool().in_use(), 0u);
}

TEST(TestbedTest, DelayedVmReplyWaitsInTheArena) {
  // A VM sink hands its reply back `d` after the call. The reply takes its
  // arena slot at the call and holds it through the hand-over; it reaches
  // the accelerator at call + d + pcie_dma_cost, stamped created = call + d.
  // The queue's pipeline is idle by then, so the reply's descriptor is
  // published one preprocessing window after that arrival.
  Testbed bed(BaseConfig(Mode::kBaseline));
  constexpr uint16_t kOwner = 7;
  const sim::Duration d = sim::Micros(5);
  sim::PacketPool& pool = bed.machine().pool();
  sim::SimTime call = 0;
  size_t slots_before = 0;
  size_t slots_after = 0;
  size_t slots_mid_handover = 0;
  bed.RegisterVmSink(kOwner, [&](const hw::IoPacket& pkt, sim::SimTime now) {
    call = now;
    hw::IoPacket reply = pkt;
    reply.kind = hw::IoKind::kNetTx;
    reply.created = 0;
    slots_before = pool.in_use();
    bed.InjectFromVm(reply, d);
    slots_after = pool.in_use();
    bed.sim().Schedule(d / 2, [&] { slots_mid_handover = pool.in_use(); });
  });
  int replies = 0;
  sim::SimTime reply_ring_push = 0;
  sim::SimTime reply_created = 0;
  bed.RegisterWireSink(kOwner, [&](const hw::IoPacket& pkt, sim::SimTime) {
    ++replies;
    reply_ring_push = pkt.ring_push;
    reply_created = pkt.created;
  });

  hw::IoPacket request;
  request.id = 1;
  request.kind = hw::IoKind::kNetRx;
  request.user_tag = Testbed::Tag(kOwner, 1);
  bed.InjectFromWire(request);
  bed.sim().RunFor(sim::Millis(1));

  ASSERT_GT(call, 0u);
  EXPECT_EQ(slots_after, slots_before + 1);
  EXPECT_EQ(slots_mid_handover, 1u);  // The request is freed; the reply waits.
  const hw::AcceleratorConfig& accel = bed.config().accelerator;
  EXPECT_EQ(reply_ring_push, call + d + bed.config().pcie_dma_cost +
                                 accel.preprocess_latency + accel.transfer_latency);
  EXPECT_EQ(reply_created, call + d);
  EXPECT_EQ(replies, 1);
  EXPECT_EQ(pool.in_use(), 0u);
}

TEST(TestbedTest, FullArenaShedsEveryInjectionLegAsOnePoolDrop) {
  // With every arena slot taken, each leg sheds its packet at the call: one
  // pool drop that also counts as ingressed, and no sink ever sees it.
  TestbedConfig cfg = BaseConfig(Mode::kBaseline);
  cfg.packet_pool_capacity = 4;
  Testbed bed(cfg);
  constexpr uint16_t kOwner = 7;
  int delivered = 0;
  auto count = [&](const hw::IoPacket&, sim::SimTime) { ++delivered; };
  bed.RegisterVmSink(kOwner, count);
  bed.RegisterWireSink(kOwner, count);
  bed.RegisterStorageSink(kOwner, count);
  sim::PacketPool& pool = bed.machine().pool();
  while (pool.Alloc(hw::IoPacket{}) != sim::kInvalidPacketHandle) {
  }
  ASSERT_EQ(pool.in_use(), pool.capacity());

  const hw::Accelerator& accel = bed.machine().accelerator();
  const sim::Duration d = sim::Micros(5);
  auto packet = [&](hw::IoKind kind) {
    hw::IoPacket pkt;
    pkt.kind = kind;
    pkt.user_tag = Testbed::Tag(kOwner, 1);
    return pkt;
  };
  bed.InjectFromWire(packet(hw::IoKind::kNetRx));
  EXPECT_EQ(accel.pool_drops(), 1u);
  bed.InjectFromVm(packet(hw::IoKind::kNetTx));
  EXPECT_EQ(accel.pool_drops(), 2u);
  bed.InjectFromVm(packet(hw::IoKind::kNetTx), d);
  EXPECT_EQ(accel.pool_drops(), 3u);
  bed.Inject(packet(hw::IoKind::kBlockIo), d);
  EXPECT_EQ(accel.pool_drops(), 4u);
  bed.Inject(packet(hw::IoKind::kBlockIo));
  EXPECT_EQ(accel.pool_drops(), 5u);
  EXPECT_EQ(accel.packets_ingressed(), 5u);

  bed.sim().RunFor(sim::Millis(1));
  EXPECT_EQ(accel.pool_drops(), 5u);
  EXPECT_EQ(accel.packets_ingressed(), 5u);
  EXPECT_EQ(accel.packets_published(), 0u);
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(pool.in_use(), pool.capacity());
}

}  // namespace
}  // namespace taichi::exp
