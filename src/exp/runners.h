// Closed- and open-loop workload runners over a Testbed, reproducing the
// benchmark harnesses of Table 3: ping, netperf (stream/rr/crr), sockperf,
// fio, and the synth_cp / VM-startup control-plane drivers.
#ifndef SRC_EXP_RUNNERS_H_
#define SRC_EXP_RUNNERS_H_

#include <memory>
#include <vector>

#include "src/cp/synth_cp.h"
#include "src/exp/testbed.h"
#include "src/sim/stats.h"

namespace taichi::exp {

// --- ping: sequential ICMP echo through the full path (Table 5) ---
class PingRunner {
 public:
  explicit PingRunner(Testbed* bed, uint16_t owner = 10);
  // Sends `count` pings `interval` apart; returns the RTT summary in us.
  sim::Summary Run(int count, sim::Duration interval);

 private:
  Testbed* bed_;
  uint16_t owner_;
};

// --- request/response closed loops (netperf tcp_rr/tcp_crr, sockperf) ---
struct RrConfig {
  int connections = 64;
  uint32_t request_bytes = 64;
  uint32_t response_bytes = 64;
  // Round trips per counted transaction (1 = rr; 3 = connect/request/close
  // for crr and CPS-style benchmarks).
  int round_trips_per_txn = 1;
  // Extra DP work on the first packet of a transaction (flow-table setup).
  uint32_t setup_dp_cost_ns = 0;
  // Client think time between transactions (0 = back-to-back, fully
  // saturating). Nonzero values leave idle gaps on the data plane — the
  // regime where co-scheduling costs become visible.
  sim::Duration think_time_mean = 0;
};

struct RrResult {
  double txn_per_sec = 0;
  double rx_pps = 0;  // Packets received by the VM per second.
  double tx_pps = 0;  // Packets sent by the VM per second.
  sim::Summary txn_latency_us;
};

class RrRunner {
 public:
  RrRunner(Testbed* bed, RrConfig config, uint16_t owner = 11);
  ~RrRunner();
  RrResult Run(sim::Duration duration, sim::Duration warmup);

 private:
  struct Conn;
  void SendRequest(Conn& conn);

  Testbed* bed_;
  RrConfig config_;
  uint16_t owner_;
  std::vector<std::unique_ptr<Conn>> conns_;
  bool counting_ = false;
  uint64_t txns_ = 0;
  uint64_t rx_pkts_ = 0;
  uint64_t tx_pkts_ = 0;
  sim::Summary txn_latency_us_;
};

// --- open-loop streams (netperf udp_stream/tcp_stream) ---
struct StreamConfig {
  double per_cpu_offered_pps = 1.2e6;  // Offer above capacity to saturate.
  uint32_t size_bytes = 1400;
  bool tx_direction = false;  // false: wire->VM (rx); true: VM->wire (tx).
  int flows_per_cpu = 1;
  // Bursty (MMPP) offering: above-capacity bursts separated by near-idle
  // valleys, like real TCP traffic. The valleys are where Tai Chi donates
  // cycles — and burst onsets then pay probe-preemption + cache pollution.
  bool bursty = false;
  double burst_multiplier = 8.0;
  sim::Duration burst_mean = sim::Millis(2);
  sim::Duration calm_mean = sim::Millis(2);
};

struct StreamResult {
  double delivered_pps = 0;
  double delivered_gbps = 0;
  sim::Summary latency_us;
};

class StreamRunner {
 public:
  StreamRunner(Testbed* bed, StreamConfig config, uint16_t owner = 12);
  StreamResult Run(sim::Duration duration, sim::Duration warmup);

 private:
  Testbed* bed_;
  StreamConfig config_;
  uint16_t owner_;
};

// --- fio: closed-loop 4 KB block I/O (fio_rw, Table 3) ---
struct FioConfig {
  int threads = 16;
  int iodepth = 8;
  uint32_t block_bytes = 4096;
  sim::Duration backend_latency = sim::Micros(70);
};

struct FioResult {
  double iops = 0;
  double bw_mbps = 0;
  sim::Summary io_latency_us;
};

class FioRunner {
 public:
  FioRunner(Testbed* bed, FioConfig config, uint16_t owner = 13);
  FioResult Run(sim::Duration duration, sim::Duration warmup);

 private:
  void Issue(uint64_t slot);

  Testbed* bed_;
  FioConfig config_;
  uint16_t owner_;
  std::vector<sim::SimTime> issue_time_;
  bool counting_ = false;
  uint64_t completions_ = 0;
  sim::Summary io_latency_us_;
};

// --- synth_cp driver (Fig. 11) ---
struct SynthCpResult {
  sim::Summary exec_time_ms;
  sim::Duration makespan = 0;
};

// Launches `concurrency` synth_cp tasks with background DP load at
// `dp_utilization` (Fig. 11 holds it at the production p99 of ~30%).
SynthCpResult RunSynthCp(Testbed* bed, int concurrency, double dp_utilization,
                         cp::SynthCpConfig cp_config = {});

// --- VM startup storms (Fig. 2 / Fig. 17) ---
struct VmStartupResult {
  sim::Summary startup_ms;
};

// Starts `num_vms` VM-creation workflows with exponential inter-arrivals at
// `arrival_rate_per_sec`, with background DP load at `dp_utilization`.
VmStartupResult RunVmStartupStorm(Testbed* bed, int num_vms, double arrival_rate_per_sec,
                                  double dp_utilization);

}  // namespace taichi::exp

#endif  // SRC_EXP_RUNNERS_H_
