// Live affinity changes (sched_setaffinity model) across all task states.
#include <gtest/gtest.h>

#include <memory>

#include "src/os/behaviors.h"
#include "src/os/kernel.h"

namespace taichi::os {
namespace {

class AffinityTest : public ::testing::Test {
 protected:
  AffinityTest() {
    hw::MachineConfig mcfg;
    mcfg.num_cpus = 4;
    machine_ = std::make_unique<hw::Machine>(&sim_, mcfg);
    kernel_ = std::make_unique<Kernel>(&sim_, machine_.get(), KernelConfig{});
  }

  sim::Simulation sim_;
  std::unique_ptr<hw::Machine> machine_;
  std::unique_ptr<Kernel> kernel_;
};

TEST_F(AffinityTest, RunningTaskMigratesMidCompute) {
  Task* t = kernel_->Spawn("long",
                           std::make_unique<ScriptBehavior>(std::vector<Action>{
                               Action::Compute(sim::Millis(20))}),
                           CpuSet::Of({0}));
  sim_.RunFor(sim::Millis(2));
  EXPECT_EQ(t->cpu(), 0);
  kernel_->SetTaskAffinity(t, CpuSet::Of({2}));
  sim_.RunFor(sim::Millis(1));
  EXPECT_EQ(t->cpu(), 2);
  EXPECT_EQ(t->state(), TaskState::kRunning);
  // The old CPU drains to idle: the task left no copy behind.
  EXPECT_EQ(kernel_->current_task(0), nullptr);
  EXPECT_EQ(kernel_->runnable_count(0), 0u);
  sim_.RunFor(sim::Millis(30));
  EXPECT_EQ(t->state(), TaskState::kExited);
  // No work was lost across the migration.
  EXPECT_GE(t->cpu_time(), sim::Millis(20));
}

TEST_F(AffinityTest, NonPreemptibleTaskMigratesAtSectionEnd) {
  Task* t = kernel_->Spawn("kern",
                           std::make_unique<ScriptBehavior>(std::vector<Action>{
                               Action::KernelSection(sim::Millis(5)),
                               Action::Compute(sim::Millis(1))}),
                           CpuSet::Of({0}));
  sim_.RunFor(sim::Millis(1));
  kernel_->SetTaskAffinity(t, CpuSet::Of({3}));
  sim_.RunFor(sim::Millis(2));
  EXPECT_EQ(t->cpu(), 0);  // Still pinned by the kernel section.
  sim_.RunFor(sim::Millis(20));
  EXPECT_EQ(t->state(), TaskState::kExited);
  EXPECT_EQ(t->cpu(), 3);  // Finished its compute on the new CPU.
}

TEST_F(AffinityTest, QueuedTaskMovesImmediately) {
  // Occupy CPU 0 with a hog, queue a task behind it, then re-affine it.
  kernel_->Spawn("hog",
                 std::make_unique<LoopBehavior>(std::vector<Action>{
                     Action::Compute(sim::Millis(1))}),
                 CpuSet::Of({0}));
  sim_.RunFor(sim::Micros(100));
  Task* queued = kernel_->Spawn("queued",
                                std::make_unique<ScriptBehavior>(std::vector<Action>{
                                    Action::Compute(sim::Micros(100))}),
                                CpuSet::Of({0}));
  EXPECT_EQ(queued->state(), TaskState::kRunnable);
  kernel_->SetTaskAffinity(queued, CpuSet::Of({1}));
  sim_.RunFor(sim::Millis(1));
  EXPECT_EQ(queued->state(), TaskState::kExited);
  EXPECT_EQ(queued->cpu(), 1);
}

TEST_F(AffinityTest, SleepingTaskPlacedOnWake) {
  Task* t = kernel_->Spawn("sleeper",
                           std::make_unique<ScriptBehavior>(std::vector<Action>{
                               Action::Sleep(sim::Millis(5)),
                               Action::Compute(sim::Micros(100))}),
                           CpuSet::Of({0}));
  sim_.RunFor(sim::Millis(1));
  EXPECT_EQ(t->state(), TaskState::kSleeping);
  kernel_->SetTaskAffinity(t, CpuSet::Of({2}));
  sim_.RunFor(sim::Millis(10));
  EXPECT_EQ(t->state(), TaskState::kExited);
  EXPECT_EQ(t->cpu(), 2);
}

TEST_F(AffinityTest, NoopWhenCurrentCpuStillAllowed) {
  Task* t = kernel_->Spawn("stay",
                           std::make_unique<ScriptBehavior>(std::vector<Action>{
                               Action::Compute(sim::Millis(5))}),
                           CpuSet::Of({1}));
  sim_.RunFor(sim::Millis(1));
  uint64_t switches = kernel_->context_switches();
  kernel_->SetTaskAffinity(t, CpuSet::Of({1, 2}));
  sim_.RunFor(sim::Micros(100));
  EXPECT_EQ(t->cpu(), 1);
  EXPECT_EQ(kernel_->context_switches(), switches);  // No migration churn.
}

}  // namespace
}  // namespace taichi::os
