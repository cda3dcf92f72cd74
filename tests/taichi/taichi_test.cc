// Tests for the Tai Chi facade, IPI orchestrator, and vCPU scheduler on a
// live kernel.
#include "src/taichi/taichi.h"

#include <gtest/gtest.h>

#include <memory>

#include "src/os/behaviors.h"

namespace taichi::core {
namespace {

class TaiChiTest : public ::testing::Test {
 protected:
  TaiChiTest() {
    hw::MachineConfig mcfg;
    mcfg.num_cpus = 6;  // 4 DP + 2 CP.
    machine_ = std::make_unique<hw::Machine>(&sim_, mcfg);
    kernel_ = std::make_unique<os::Kernel>(&sim_, machine_.get(), os::KernelConfig{});
    TaiChiConfig cfg;
    cfg.dp_cpus = os::CpuSet::Range(0, 4);
    cfg.cp_cpus = os::CpuSet::Range(4, 6);
    cfg.num_vcpus = 4;
    taichi_ = std::make_unique<TaiChi>(kernel_.get(), cfg);
    sim_.RunFor(sim::Millis(1));  // vCPU bring-up.
  }

  sim::Simulation sim_;
  std::unique_ptr<hw::Machine> machine_;
  std::unique_ptr<os::Kernel> kernel_;
  std::unique_ptr<TaiChi> taichi_;
};

TEST_F(TaiChiTest, VcpusComeOnlineAsNativeCpus) {
  EXPECT_EQ(taichi_->pool().size(), 4);
  for (const auto& v : taichi_->pool().vcpus()) {
    EXPECT_TRUE(kernel_->cpu_online(v.cpu));
    EXPECT_EQ(kernel_->cpu_kind(v.cpu), os::CpuKind::kVirtual);
    EXPECT_FALSE(kernel_->cpu_backed(v.cpu));
  }
}

TEST_F(TaiChiTest, CpTaskCpusCoverVcpusAndCpPcpus) {
  os::CpuSet cpus = taichi_->cp_task_cpus();
  EXPECT_EQ(cpus.count(), 6);  // 4 vCPUs + 2 CP pCPUs.
  EXPECT_TRUE(cpus.Test(4));
  EXPECT_TRUE(cpus.Test(5));
  for (const auto& v : taichi_->pool().vcpus()) {
    EXPECT_TRUE(cpus.Test(v.cpu));
  }
  EXPECT_FALSE(cpus.Test(0));  // DP pCPUs are never CP targets.
}

TEST_F(TaiChiTest, HwProbeInstalledIntoAccelerator) {
  EXPECT_EQ(machine_->accelerator().probe(), &machine_->probe());
  EXPECT_TRUE(machine_->probe().enabled());
}

TEST_F(TaiChiTest, TaskOnVcpuRunsViaIdleCpPcpuHosting) {
  // CP pCPUs busy? No — they are idle, so a vCPU-affined task triggers
  // kick -> idle CP pCPU hosts the vCPU.
  os::CpuId vcpu = taichi_->pool().vcpus()[0].cpu;
  os::Task* t = kernel_->Spawn("cp_task",
                               std::make_unique<os::ScriptBehavior>(std::vector<os::Action>{
                                   os::Action::Compute(sim::Millis(2))}),
                               os::CpuSet::Of({vcpu}));
  sim_.RunFor(sim::Millis(10));
  EXPECT_EQ(t->state(), os::TaskState::kExited);
  EXPECT_GT(taichi_->scheduler().switches(), 0u);
}

TEST_F(TaiChiTest, LiveAffinityMovesARunningTaskIntoTheVcpuDomainAndBack) {
  // §5 deploys CP tasks by plain CPU affinity: re-binding a running task to
  // the vCPUs moves it into a vCPU context, and re-binding it back returns
  // it to its physical CPU.
  os::Task* t = kernel_->Spawn(
      "cp_task",
      std::make_unique<os::LoopBehavior>(std::vector<os::Action>{
          os::Action::Compute(sim::Micros(100)), os::Action::KernelSection(sim::Micros(50))}),
      os::CpuSet::Of({4}));
  sim_.RunFor(sim::Millis(2));
  EXPECT_EQ(t->cpu(), 4);

  kernel_->SetTaskAffinity(t, taichi_->vcpu_set());
  sim_.RunFor(sim::Millis(5));
  EXPECT_TRUE(taichi_->vcpu_set().Test(t->cpu())) << "still on " << t->cpu();

  kernel_->SetTaskAffinity(t, os::CpuSet::Of({4}));
  sim_.RunFor(sim::Millis(5));
  EXPECT_EQ(t->cpu(), 4);
  EXPECT_EQ(t->state(), os::TaskState::kRunning);
}

TEST_F(TaiChiTest, OrchestratorRoutesBootIpis) {
  // Boot IPIs for the 4 vCPUs went through the orchestrator.
  EXPECT_GE(taichi_->orchestrator().routed(), 4u);
}

TEST_F(TaiChiTest, SleepingVcpuWokenByIpi) {
  os::CpuId vcpu = taichi_->pool().vcpus()[1].cpu;
  EXPECT_EQ(taichi_->scheduler().vcpu_state(vcpu), VcpuScheduler::VcpuState::kSleeping);
  kernel_->Spawn("late_task",
                 std::make_unique<os::ScriptBehavior>(std::vector<os::Action>{
                     os::Action::Compute(sim::Micros(100))}),
                 os::CpuSet::Of({vcpu}));
  sim_.RunFor(sim::Millis(5));
  // Work got done: the wake IPI reached the sleeping vCPU through the
  // orchestrator and the scheduler placed it.
  EXPECT_GT(taichi_->orchestrator().sleeping_vcpu_wakes(), 0u);
}

TEST_F(TaiChiTest, IpiFromVcpuTriggersSourceExit) {
  // A task on a vCPU wakes a task pinned to a physical CPU; the wake IPI
  // crosses the virtualization boundary: VM-exit + reissue.
  os::CpuId vcpu = taichi_->pool().vcpus()[0].cpu;
  os::Task* sleeper = kernel_->Spawn(
      "sleeper",
      std::make_unique<os::ScriptBehavior>(std::vector<os::Action>{
          os::Action::Block(), os::Action::Compute(sim::Micros(10))}),
      os::CpuSet::Of({4}));
  sim_.RunFor(sim::Millis(2));
  ASSERT_EQ(sleeper->state(), os::TaskState::kBlocked);

  auto step = std::make_shared<int>(0);
  os::Task* waker = kernel_->Spawn(
      "waker",
      std::make_unique<os::LambdaBehavior>(
          [sleeper, step](os::Kernel& k, os::Task& self,
                          const os::ActionResult&) -> os::Action {
            switch ((*step)++) {
              case 0:
                return os::Action::Compute(sim::Micros(50));
              case 1:
                k.Wake(sleeper, self.cpu());
                return os::Action::Compute(sim::Micros(10));
              default:
                return os::Action::Exit();
            }
          }),
      os::CpuSet::Of({vcpu}));
  sim_.RunFor(sim::Millis(10));
  EXPECT_EQ(waker->state(), os::TaskState::kExited);
  EXPECT_EQ(sleeper->state(), os::TaskState::kExited);
  EXPECT_GE(taichi_->orchestrator().vcpu_source_exits(), 1u);
}

TEST_F(TaiChiTest, SchedulerStatsAccumulate) {
  for (int i = 0; i < 4; ++i) {
    kernel_->Spawn("w" + std::to_string(i),
                   std::make_unique<os::LoopBehavior>(
                       std::vector<os::Action>{os::Action::Compute(sim::Micros(200)),
                                               os::Action::Sleep(sim::Micros(100))},
                       /*iterations=*/200),
                   taichi_->cp_task_cpus());
  }
  sim_.RunFor(sim::Millis(100));
  EXPECT_GT(taichi_->scheduler().switches(), 0u);
  EXPECT_GT(kernel_->guest_entries(), 0u);
  EXPECT_EQ(kernel_->guest_entries(), kernel_->guest_exits());
}

}  // namespace
}  // namespace taichi::core
