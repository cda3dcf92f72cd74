#include "src/dp/poll_service.h"

#include <gtest/gtest.h>

#include <memory>

#include "src/hw/machine.h"
#include "src/os/behaviors.h"
#include "src/sim/packet_pool.h"

namespace taichi::dp {
namespace {

class PollServiceTest : public ::testing::Test {
 protected:
  PollServiceTest() {
    hw::MachineConfig mcfg;
    mcfg.num_cpus = 2;
    machine_ = std::make_unique<hw::Machine>(&sim_, mcfg);
    kernel_ = std::make_unique<os::Kernel>(&sim_, machine_.get(), os::KernelConfig{});
  }

  PollService* MakeService(YieldPolicy policy, PollServiceConfig cfg = {}) {
    service_ = std::make_unique<PollService>(0, cfg, policy);
    service_->set_pool(&pool_);
    service_->AttachRing(&ring_);
    service_->set_sink([this](const sim::PacketHandle* batch, size_t count, sim::SimTime t) {
      for (size_t i = 0; i < count; ++i) {
        delivered_.push_back({pool_.Get(batch[i]), t});
        pool_.Free(batch[i]);
      }
    });
    os::Task* task = kernel_->Spawn("dp", std::make_unique<os::BehaviorRef>(service_.get()),
                                    os::CpuSet::Of({0}), os::Priority::kHigh);
    service_->BindTask(kernel_.get(), task);
    return service_.get();
  }

  void PushTo(hw::DescriptorRing& ring, uint64_t id, uint32_t bytes = 64,
              uint64_t dp_cost_hint = 0) {
    hw::IoPacket pkt;
    pkt.id = id;
    pkt.size_bytes = bytes;
    pkt.dp_cost_hint = dp_cost_hint;
    pkt.ring_push = sim_.Now();
    sim::PacketHandle h = pool_.Alloc(pkt);
    ASSERT_NE(h, sim::kInvalidPacketHandle);
    ring.Push(h);
  }

  void Push(uint64_t id, uint32_t bytes = 64) { PushTo(ring_, id, bytes); }

  sim::Simulation sim_;
  sim::PacketPool pool_{1024};
  std::unique_ptr<hw::Machine> machine_;
  std::unique_ptr<os::Kernel> kernel_;
  hw::DescriptorRing ring_;
  std::unique_ptr<PollService> service_;
  std::vector<std::pair<hw::IoPacket, sim::SimTime>> delivered_;
};

TEST_F(PollServiceTest, ProcessesAndDeliversPackets) {
  PollService* svc = MakeService(YieldPolicy::kBusyPoll);
  sim_.RunFor(sim::Micros(10));
  Push(1);
  Push(2);
  sim_.RunFor(sim::Micros(50));
  ASSERT_EQ(delivered_.size(), 2u);
  EXPECT_EQ(delivered_[0].first.id, 1u);
  EXPECT_EQ(delivered_[1].first.id, 2u);
  EXPECT_EQ(svc->packets_processed(), 2u);
  EXPECT_GT(svc->work_time(), 0u);
  EXPECT_EQ(pool_.in_use(), 0u);  // Every slot returned after delivery.
}

TEST_F(PollServiceTest, ProcessingCostScalesWithBytes) {
  PollServiceConfig cfg;
  cfg.per_packet_base_cost = sim::Nanos(1000);
  cfg.ns_per_byte = 1.0;
  PollService* svc = MakeService(YieldPolicy::kBusyPoll, cfg);
  sim_.RunFor(sim::Micros(10));
  Push(1, 64);
  sim_.RunFor(sim::Millis(1));
  sim::Duration small = svc->work_time();
  Push(2, 1400);
  sim_.RunFor(sim::Millis(1));
  sim::Duration big = svc->work_time() - small;
  EXPECT_GT(big, small);
  EXPECT_NEAR(static_cast<double>(big), 1000.0 + 1400.0, 50.0);
}

TEST_F(PollServiceTest, DpCostHintAddsWork) {
  PollService* svc = MakeService(YieldPolicy::kBusyPoll);
  sim_.RunFor(sim::Micros(10));
  PushTo(ring_, 9, 64, /*dp_cost_hint=*/5000);
  sim_.RunFor(sim::Millis(1));
  EXPECT_GE(svc->work_time(), 5000u);
}

TEST_F(PollServiceTest, BurstBounded) {
  PollServiceConfig cfg;
  cfg.burst_size = 4;
  MakeService(YieldPolicy::kBusyPoll, cfg);
  sim_.RunFor(sim::Micros(10));
  for (uint64_t i = 0; i < 10; ++i) {
    Push(i);
  }
  sim_.RunFor(sim::Millis(1));
  EXPECT_EQ(delivered_.size(), 10u);  // All processed across bursts.
}

TEST_F(PollServiceTest, VirtTaxInflatesWork) {
  PollServiceConfig plain_cfg;
  PollService* svc = MakeService(YieldPolicy::kBusyPoll, plain_cfg);
  sim_.RunFor(sim::Micros(10));
  Push(1);
  sim_.RunFor(sim::Millis(1));
  sim::Duration plain = svc->work_time();

  delivered_.clear();
  PollServiceConfig taxed_cfg;
  taxed_cfg.virt_work_tax = 0.10;
  // Fresh kernel state: new service on CPU 1.
  auto taxed = std::make_unique<PollService>(1, taxed_cfg, YieldPolicy::kBusyPoll);
  hw::DescriptorRing ring2;
  taxed->set_pool(&pool_);
  taxed->AttachRing(&ring2);
  os::Task* task = kernel_->Spawn("dp2", std::make_unique<os::BehaviorRef>(taxed.get()),
                                  os::CpuSet::Of({1}), os::Priority::kHigh);
  taxed->BindTask(kernel_.get(), task);
  sim_.RunFor(sim::Micros(10));
  PushTo(ring2, 1);
  sim_.RunFor(sim::Millis(1));
  EXPECT_NEAR(static_cast<double>(taxed->work_time()), static_cast<double>(plain) * 1.10,
              static_cast<double>(plain) * 0.02);
}

TEST_F(PollServiceTest, IsIdleTracksRings) {
  PollService* svc = MakeService(YieldPolicy::kBusyPoll);
  EXPECT_TRUE(svc->IsIdle());
  Push(1);
  EXPECT_FALSE(svc->IsIdle());
  sim_.RunFor(sim::Millis(1));
  EXPECT_TRUE(svc->IsIdle());
}

TEST_F(PollServiceTest, QueueDelayMeasured) {
  PollService* svc = MakeService(YieldPolicy::kBusyPoll);
  sim_.RunFor(sim::Micros(10));
  Push(1);
  sim_.RunFor(sim::Millis(1));
  ASSERT_EQ(svc->queue_delay_us().count(), 1u);
  // Picked up promptly by the busy poller.
  EXPECT_LT(svc->queue_delay_us().mean(), 5.0);
}

TEST_F(PollServiceTest, BlockOnIdlePolicySleepsAndWakes) {
  PollService* svc = MakeService(YieldPolicy::kBlockOnIdle);
  sim_.RunFor(sim::Millis(5));
  // After the empty-poll threshold the service blocks.
  EXPECT_EQ(svc->task()->state(), os::TaskState::kBlocked);
  EXPECT_GT(svc->yields(), 0u);
  Push(1);
  sim_.RunFor(sim::Millis(1));
  EXPECT_EQ(delivered_.size(), 1u);
}

TEST_F(PollServiceTest, BusyPollPolicyNeverBlocks) {
  PollService* svc = MakeService(YieldPolicy::kBusyPoll);
  sim_.RunFor(sim::Millis(5));
  EXPECT_EQ(svc->task()->state(), os::TaskState::kRunning);
  os::CpuAccounting acct = kernel_->GetAccounting(0);
  EXPECT_GT(acct.busy, sim::Millis(4));
}

TEST_F(PollServiceTest, RoundRobinGatherServesAllRingsUnderOverload) {
  // Regression for the rx-ring starvation bug: the gather loop used to drain
  // rings_[0] to exhaustion before touching later rings, so under sustained
  // overload ring 1 never made progress. With the round-robin cursor,
  // alternating bursts start on alternating rings.
  PollService* svc = MakeService(YieldPolicy::kBusyPoll);
  hw::DescriptorRing ring2;
  svc->AttachRing(&ring2);
  sim_.RunFor(sim::Micros(10));
  // Both rings hold far more than the bursts the run below can process
  // (~4 bursts of 32 at ~900 ns/packet in 120 us), so a starving gather
  // would deliver exclusively ring-0 ids.
  for (uint64_t i = 0; i < 200; ++i) {
    PushTo(ring_, i);
    PushTo(ring2, 1000 + i);
  }
  sim_.RunFor(sim::Micros(120));
  size_t from_ring0 = 0;
  size_t from_ring1 = 0;
  for (const auto& [pkt, t] : delivered_) {
    (pkt.id < 1000 ? from_ring0 : from_ring1)++;
  }
  ASSERT_GT(delivered_.size(), 0u);
  EXPECT_GT(from_ring0, 0u);
  EXPECT_GT(from_ring1, 0u);
  // The cursor alternates start rings, so neither ring gets more than one
  // burst of headway over the other.
  EXPECT_LE(from_ring0 > from_ring1 ? from_ring0 - from_ring1 : from_ring1 - from_ring0,
            32u);
}

TEST_F(PollServiceTest, PollutionSurchargeDecaysExactlyToZero) {
  // Regression for the pollution-accounting bug: the old code decremented
  // pollution_remaining_ via a lossy integer cast of the charged amount, so
  // fractional base costs under-decremented the budget and over-charged the
  // surcharge across bursts. Walk the decay to zero with base 10.5 ns and
  // check the exact per-burst costs:
  //   bursts 1-9:  charged 10.5, cost = trunc(10.5 + 10.5)      = 21 ns
  //   burst 10:    charged  5.5, cost = trunc(10.5 + 5.5)       = 16 ns
  //   bursts 11+:  budget exhausted, cost = trunc(10.5)         = 10 ns
  // Total for 12 packets: 9*21 + 16 + 2*10 = 225 ns. The lossy decrement
  // (10 per burst instead of 10.5) yields 229 ns.
  PollServiceConfig cfg;
  cfg.per_packet_base_cost = sim::Nanos(10);
  cfg.ns_per_byte = 0.5;
  cfg.pollution_max_factor = 1.0;
  cfg.pollution_decay = sim::Nanos(100);
  PollService* svc = MakeService(YieldPolicy::kBusyPoll, cfg);
  sim_.RunFor(sim::Micros(10));  // Task dispatched: dispatched_once_ armed.
  // A re-dispatch after the first one marks the working set cold.
  svc->OnScheduledIn(*kernel_, *svc->task());
  for (uint64_t i = 0; i < 12; ++i) {
    Push(i, /*bytes=*/1);  // base = 10 + 0.5 * 1 = 10.5 ns.
    sim_.RunFor(sim::Micros(5));  // One single-packet burst at a time.
  }
  EXPECT_EQ(delivered_.size(), 12u);
  EXPECT_EQ(svc->work_time(), 225);
}

TEST_F(PollServiceTest, AnyVcpuDisplacementReArmsThePollutionSurcharge) {
  // No re-dispatch happens here: a vCPU borrows the service's CPU for a
  // 2 us guest episode and hands it back, so the only sign of the
  // displacement is the CPU's guest_lent. However short the episode, the
  // next packet pays the full surcharge: base 100 ns plus 100 ns (factor 1.0
  // over a 100 ns budget).
  PollServiceConfig cfg;
  cfg.per_packet_base_cost = sim::Nanos(100);
  cfg.ns_per_byte = 0.0;
  cfg.pollution_max_factor = 1.0;
  cfg.pollution_decay = sim::Nanos(100);
  const os::CpuId vcpu = kernel_->RegisterCpu(os::CpuKind::kVirtual, 100);
  kernel_->OnlineCpu(vcpu);
  PollService* svc = MakeService(YieldPolicy::kBusyPoll, cfg);
  sim_.RunFor(sim::Millis(1));  // vCPU online, service busy-polling.
  Push(1);
  sim_.RunFor(sim::Micros(5));
  EXPECT_EQ(svc->work_time(), 100);  // Warm working set: base cost only.

  kernel_->EnterGuest(0, vcpu);
  sim_.RunFor(kernel_->config().guest.entry_cost + sim::Micros(2));
  kernel_->ExitGuest(0, os::GuestExitReason::kForced);
  sim_.RunFor(sim::Micros(5));
  ASSERT_EQ(kernel_->GetAccounting(0).guest_lent, sim::Micros(2));

  Push(2);
  sim_.RunFor(sim::Micros(5));
  ASSERT_EQ(delivered_.size(), 2u);
  EXPECT_EQ(svc->work_time(), 100 + 200);
}

}  // namespace
}  // namespace taichi::dp
