#include <gtest/gtest.h>

#include <memory>

#include "src/virt/vcpu_pool.h"

namespace taichi::virt {
namespace {

class VirtTest : public ::testing::Test {
 protected:
  VirtTest() {
    hw::MachineConfig mcfg;
    mcfg.num_cpus = 2;
    machine_ = std::make_unique<hw::Machine>(&sim_, mcfg);
    kernel_ = std::make_unique<os::Kernel>(&sim_, machine_.get(), os::KernelConfig{});
  }

  sim::Simulation sim_;
  std::unique_ptr<hw::Machine> machine_;
  std::unique_ptr<os::Kernel> kernel_;
};

TEST_F(VirtTest, PoolRegistersOfflineVcpusWithSyntheticApics) {
  VcpuPool pool(kernel_.get(), 3);
  EXPECT_EQ(pool.size(), 3);
  for (int i = 0; i < 3; ++i) {
    const VcpuInfo& v = pool.vcpus()[i];
    EXPECT_EQ(v.apic_id, kVcpuApicBase + static_cast<hw::ApicId>(i));
    EXPECT_EQ(kernel_->cpu_kind(v.cpu), os::CpuKind::kVirtual);
    EXPECT_FALSE(kernel_->cpu_online(v.cpu));
    EXPECT_TRUE(pool.contains(v.cpu));
  }
  EXPECT_FALSE(pool.contains(0));
  EXPECT_EQ(pool.cpu_set().count(), 3);
}

TEST_F(VirtTest, OnlineAllBootsEveryVcpu) {
  VcpuPool pool(kernel_.get(), 2);
  pool.OnlineAll();
  sim_.RunFor(sim::Millis(1));
  for (const VcpuInfo& v : pool.vcpus()) {
    EXPECT_TRUE(kernel_->cpu_online(v.cpu));
  }
}

}  // namespace
}  // namespace taichi::virt
