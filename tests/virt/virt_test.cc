#include <gtest/gtest.h>

#include <memory>

#include "src/os/behaviors.h"
#include "src/virt/guest_exit_mux.h"
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

class RecordingController : public GuestController {
 public:
  void OnGuestExit(os::CpuId pcpu, os::CpuId vcpu, const os::GuestExitInfo& info) override {
    exits.push_back(info.reason);
    last_vcpu = vcpu;
    kernel->ResumeHost(pcpu);
  }
  void OnGuestHalt(os::CpuId vcpu) override {
    ++halts;
    os::CpuId backer = kernel->backer_of(vcpu);
    if (backer != os::kInvalidCpu) {
      kernel->ExitGuest(backer, os::GuestExitReason::kHalt);
    }
  }
  os::Kernel* kernel = nullptr;
  std::vector<os::GuestExitReason> exits;
  os::CpuId last_vcpu = os::kInvalidCpu;
  int halts = 0;
};

TEST_F(VirtTest, MuxRoutesExitsToRegisteredController) {
  GuestExitMux mux(kernel_.get());
  VcpuPool pool(kernel_.get(), 2);
  pool.OnlineAll();
  sim_.RunFor(sim::Millis(1));

  RecordingController controller;
  controller.kernel = kernel_.get();
  os::CpuId v0 = pool.vcpus()[0].cpu;
  mux.Register(v0, &controller);

  kernel_->Spawn("w",
                 std::make_unique<os::LoopBehavior>(std::vector<os::Action>{
                     os::Action::Compute(sim::Millis(1))}),
                 os::CpuSet::Of({v0}));
  kernel_->EnterGuest(0, v0);
  sim_.RunFor(sim::Micros(100));
  kernel_->ExitGuest(0, os::GuestExitReason::kPreemptionTimer);
  sim_.RunFor(sim::Micros(100));
  ASSERT_EQ(controller.exits.size(), 1u);
  EXPECT_EQ(controller.exits[0], os::GuestExitReason::kPreemptionTimer);
  EXPECT_EQ(controller.last_vcpu, v0);
}

TEST_F(VirtTest, MuxDefaultsToResumeHostForUnregisteredVcpus) {
  GuestExitMux mux(kernel_.get());
  VcpuPool pool(kernel_.get(), 1);
  pool.OnlineAll();
  sim_.RunFor(sim::Millis(1));
  os::CpuId v = pool.vcpus()[0].cpu;

  os::Task* host = kernel_->Spawn("host",
                                  std::make_unique<os::ScriptBehavior>(std::vector<os::Action>{
                                      os::Action::Compute(sim::Millis(2))}),
                                  os::CpuSet::Of({0}));
  kernel_->Spawn("guest_w",
                 std::make_unique<os::LoopBehavior>(std::vector<os::Action>{
                     os::Action::Compute(sim::Millis(1))}),
                 os::CpuSet::Of({v}));
  sim_.RunFor(sim::Micros(100));
  kernel_->EnterGuest(0, v);
  sim_.RunFor(sim::Micros(200));
  kernel_->ExitGuest(0, os::GuestExitReason::kForced);
  sim_.RunFor(sim::Millis(5));
  // No controller registered: the host resumed and finished its work.
  EXPECT_EQ(host->state(), os::TaskState::kExited);
}

TEST_F(VirtTest, MuxHaltRouting) {
  GuestExitMux mux(kernel_.get());
  VcpuPool pool(kernel_.get(), 1);
  pool.OnlineAll();
  sim_.RunFor(sim::Millis(1));
  os::CpuId v = pool.vcpus()[0].cpu;

  RecordingController controller;
  controller.kernel = kernel_.get();
  mux.Register(v, &controller);
  kernel_->Spawn("short",
                 std::make_unique<os::ScriptBehavior>(std::vector<os::Action>{
                     os::Action::Compute(sim::Micros(50))}),
                 os::CpuSet::Of({v}));
  kernel_->EnterGuest(0, v);
  sim_.RunFor(sim::Millis(1));
  EXPECT_EQ(controller.halts, 1);  // Task finished; vCPU idled -> HLT.
  EXPECT_FALSE(kernel_->cpu_backed(v));
}

}  // namespace
}  // namespace taichi::virt
