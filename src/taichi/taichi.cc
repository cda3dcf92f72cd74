#include "src/taichi/taichi.h"

namespace taichi::core {

TaiChi::TaiChi(os::Kernel* kernel, TaiChiConfig config)
    : kernel_(kernel), config_(config) {
  pool_ = std::make_unique<virt::VcpuPool>(kernel_, config_.num_vcpus,
                                           static_cast<hw::ApicId>(config_.vcpu_apic_base));
  orchestrator_ = std::make_unique<IpiOrchestrator>(kernel_);
  sw_probe_ = std::make_unique<SwWorkloadProbe>(config_);
  scheduler_ = std::make_unique<VcpuScheduler>(kernel_, pool_.get(), sw_probe_.get(),
                                               &kernel_->machine().probe(), config_);
  scheduler_->set_orchestrator(orchestrator_.get());
  orchestrator_->set_scheduler(scheduler_.get());

  // Install the ~30-line hardware probe firmware into the accelerator.
  hw::HwWorkloadProbe& probe = kernel_->machine().probe();
  probe.set_enabled(config_.hw_probe_enabled);
  kernel_->machine().accelerator().set_probe(&probe);

  // Bring the vCPUs online: boot IPIs flow through the orchestrator.
  pool_->OnlineAll();
}

void TaiChi::AttachObservability(obs::Observability* obs) {
  obs::TraceRecorder* tracer = obs != nullptr ? &obs->trace : nullptr;
  scheduler_->set_tracer(tracer);
  orchestrator_->set_tracer(tracer);
  sw_probe_->set_tracer(tracer, &kernel_->sim());
  if (obs != nullptr) {
    scheduler_->RegisterMetrics(obs->metrics);
    orchestrator_->RegisterMetrics(obs->metrics);
    sw_probe_->RegisterMetrics(obs->metrics);
  }
}

TaiChi::~TaiChi() {
  kernel_->machine().accelerator().set_probe(nullptr);
}

}  // namespace taichi::core
