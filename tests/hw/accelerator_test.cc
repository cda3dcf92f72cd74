#include "src/hw/accelerator.h"

#include <gtest/gtest.h>

#include <array>

#include "src/sim/packet_pool.h"
#include "src/sim/simulation.h"

namespace taichi::hw {
namespace {

IoPacket Pkt(uint64_t id, sim::SimTime created) {
  IoPacket p;
  p.id = id;
  p.created = created;
  return p;
}

class AcceleratorTest : public ::testing::Test {
 protected:
  sim::PacketPool pool_{64};
};

TEST_F(AcceleratorTest, PublishesAfterPreprocessingWindow) {
  sim::Simulation s;
  AcceleratorConfig cfg;
  Accelerator acc(&s, cfg);
  acc.set_pool(&pool_);
  uint32_t q = acc.AddQueue(/*dest_cpu=*/0);
  acc.Ingress(q, Pkt(1, s.Now()));
  s.Run();
  ASSERT_EQ(acc.ring(q).size(), 1u);
  std::array<sim::PacketHandle, 1> out{};
  ASSERT_EQ(acc.ring(q).PopBurst(1, out.data()), 1u);
  // 2.7 us preprocess + 0.5 us transfer = 3.2 us (Fig. 6).
  EXPECT_EQ(pool_.Get(out[0]).ring_push, sim::MicrosF(3.2));
}

TEST_F(AcceleratorTest, PipelinesBackToBackPackets) {
  sim::Simulation s;
  AcceleratorConfig cfg;
  cfg.per_packet_gap = sim::Nanos(100);
  Accelerator acc(&s, cfg);
  acc.set_pool(&pool_);
  uint32_t q = acc.AddQueue(0);
  acc.Ingress(q, Pkt(1, 0));
  acc.Ingress(q, Pkt(2, 0));
  s.Run();
  std::array<sim::PacketHandle, 8> out;
  size_t n = acc.ring(q).PopBurst(out.size(), out.data());
  ASSERT_EQ(n, 2u);
  // Second packet starts 100 ns later, not 3.2 us later.
  EXPECT_EQ(pool_.Get(out[1]).ring_push - pool_.Get(out[0]).ring_push, sim::Nanos(100));
}

TEST_F(AcceleratorTest, ProbeConsultedBeforePreprocessing) {
  sim::Simulation s;
  Apic apic(&s, 1);
  sim::SimTime irq_at = 0;
  apic.RegisterHandler(0, [&](IrqVector, ApicId) { irq_at = s.Now(); });
  HwWorkloadProbe probe(&s, &apic, {0});
  probe.SetState(0, CpuProbeState::kVState);

  Accelerator acc(&s, {});
  acc.set_pool(&pool_);
  acc.set_probe(&probe);
  uint32_t q = acc.AddQueue(0);
  s.Schedule(sim::Micros(10), [&] { acc.Ingress(q, Pkt(1, s.Now())); });
  s.Run();
  // The IRQ beats the packet's ring publication by the preprocessing window.
  EXPECT_EQ(irq_at, sim::Micros(10) + sim::Nanos(1));
  EXPECT_EQ(acc.packets_published(), 1u);
}

TEST_F(AcceleratorTest, QueuesAreIndependent) {
  sim::Simulation s;
  Accelerator acc(&s, {});
  acc.set_pool(&pool_);
  uint32_t q0 = acc.AddQueue(0);
  uint32_t q1 = acc.AddQueue(5);
  acc.Ingress(q0, Pkt(1, 0));
  acc.Ingress(q1, Pkt(2, 0));
  s.Run();
  EXPECT_EQ(acc.ring(q0).size(), 1u);
  EXPECT_EQ(acc.ring(q1).size(), 1u);
  EXPECT_EQ(acc.dest_cpu(q1), 5u);
}

TEST_F(AcceleratorTest, ResidencyStatRecordsWindow) {
  sim::Simulation s;
  Accelerator acc(&s, {});
  acc.set_pool(&pool_);
  uint32_t q = acc.AddQueue(0);
  acc.Ingress(q, Pkt(1, 0));
  s.Run();
  ASSERT_EQ(acc.residency_us().count(), 1u);
  EXPECT_NEAR(acc.residency_us().mean(), 3.2, 1e-9);
}

TEST_F(AcceleratorTest, PoolExhaustionCountsAsDrop) {
  // A pool with room for 2 packets: the third arrival is shed before the
  // pipeline and shows up in pool_drops(), not as a published packet.
  sim::Simulation s;
  sim::PacketPool tiny(2);
  Accelerator acc(&s, {});
  acc.set_pool(&tiny);
  uint32_t q = acc.AddQueue(0);
  acc.Ingress(q, Pkt(1, 0));
  acc.Ingress(q, Pkt(2, 0));
  acc.Ingress(q, Pkt(3, 0));  // Arena exhausted.
  EXPECT_EQ(acc.pool_drops(), 1u);
  EXPECT_EQ(acc.packets_ingressed(), 3u);  // Still offered load.
  s.Run();
  EXPECT_EQ(acc.packets_published(), 2u);
  EXPECT_EQ(tiny.exhausted(), 1u);
}

TEST_F(AcceleratorTest, RingOverflowFreesSlotBackToPool) {
  // Ring capacity 1: the second publish overflows; its arena slot must be
  // reclaimed or the pool leaks under sustained overload.
  sim::Simulation s;
  AcceleratorConfig cfg;
  cfg.ring_capacity = 1;
  Accelerator acc(&s, cfg);
  acc.set_pool(&pool_);
  uint32_t q = acc.AddQueue(0);
  acc.Ingress(q, Pkt(1, 0));
  acc.Ingress(q, Pkt(2, 0));
  s.Run();
  EXPECT_EQ(acc.ring_drops(), 1u);
  EXPECT_EQ(acc.packets_published(), 1u);
  EXPECT_EQ(pool_.in_use(), 1u);  // Only the packet still sitting in the ring.
}

}  // namespace
}  // namespace taichi::hw
