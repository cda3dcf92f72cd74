// Isolated layer microloops for the traced run: the per-call cost of the
// inner layers the driver cannot time from outside a workload. Each returns
// the median of several timed repetitions, in wall nanoseconds per
// operation, and is sized from the workload it is reported under.
#ifndef PERFBENCH_MICROLOOPS_H_
#define PERFBENCH_MICROLOOPS_H_

#include <cstddef>
#include <cstdint>

#include "src/obs/flow_monitor.h"

namespace perfbench {

// EventQueue schedule + pop with `depth` events standing in the queue.
double SchedulePopNs(size_t depth);

// One kernel context switch: two yield-looping tasks sharing one CPU.
double ContextSwitchNs();

// Accelerator::Ingress of one packet through preprocessing to ring publish.
double IngressNs();

// One packet of a 32-packet PollService burst of `packet_bytes` packets,
// from the ring to the batch sink.
double BurstNsPerPacket(uint32_t packet_bytes);

// FlowMonitor::OnPacket with sketches sized by `config`, on a Zipf-skewed
// key stream over `flows` distinct flows.
double FlowUpdateNs(const taichi::obs::FlowMonitorConfig& config, size_t flows);

// sim::Summary::Add into a summary that grows as it does in a run.
double SummaryAddNs();

}  // namespace perfbench

#endif  // PERFBENCH_MICROLOOPS_H_
