#include "src/exp/runners.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace taichi::exp {

// ---- PingRunner ------------------------------------------------------------

namespace {
// A send-time slot with no ping awaiting its reply.
constexpr sim::SimTime kUnsent = std::numeric_limits<sim::SimTime>::max();
}  // namespace

PingRunner::PingRunner(Testbed* bed, uint16_t owner) : bed_(bed), owner_(owner) {}

sim::Summary PingRunner::Run(int count, sim::Duration interval) {
  sim::Summary rtt_us;
  int completed = 0;
  std::vector<sim::SimTime> sent_at(static_cast<size_t>(count), kUnsent);

  // VM side: reflect the echo request after the guest stack delay.
  bed_->RegisterVmSink(owner_, [this](const hw::IoPacket& pkt, sim::SimTime) {
    hw::IoPacket reply = pkt;
    reply.kind = hw::IoKind::kNetTx;
    reply.created = 0;
    bed_->InjectFromVm(reply, bed_->VmStackDelay());
  });

  auto send_ping = [this, &sent_at](uint64_t seq) {
    hw::IoPacket pkt;
    pkt.id = seq;
    pkt.kind = hw::IoKind::kNetRx;
    pkt.size_bytes = 64;
    pkt.flow = 0;
    pkt.user_tag = Testbed::Tag(owner_, seq);
    sent_at[seq] = bed_->sim().Now();
    bed_->InjectFromWire(pkt);
  };

  // Client side: record the RTT when the echo reply hits the wire sink.
  bed_->RegisterWireSink(owner_, [&](const hw::IoPacket& pkt, sim::SimTime now) {
    uint64_t seq = pkt.user_tag & 0xffffffffffffULL;
    if (seq >= sent_at.size() || sent_at[seq] == kUnsent) {
      return;
    }
    rtt_us.Add(sim::ToMicros(now - sent_at[seq]));
    sent_at[seq] = kUnsent;
    ++completed;
  });

  for (int i = 0; i < count; ++i) {
    bed_->sim().Schedule(interval * static_cast<uint64_t>(i),
                         [send_ping, i] { send_ping(static_cast<uint64_t>(i)); });
  }
  // Run until all pings complete (with a generous deadline).
  sim::SimTime deadline =
      bed_->sim().Now() + interval * static_cast<uint64_t>(count) + sim::Seconds(2);
  while (completed < count && bed_->sim().Now() < deadline) {
    bed_->sim().RunFor(sim::Millis(10));
  }
  return rtt_us;
}

// ---- RrRunner ----------------------------------------------------------------

struct RrRunner::Conn {
  uint64_t id = 0;
  int round_trip = 0;           // Within the current transaction.
  sim::SimTime txn_start = 0;
  sim::Rng rng{0};
};

RrRunner::RrRunner(Testbed* bed, RrConfig config, uint16_t owner)
    : bed_(bed), config_(config), owner_(owner) {}

RrRunner::~RrRunner() = default;

void RrRunner::SendRequest(Conn& conn) {
  hw::IoPacket pkt;
  pkt.id = conn.id;
  pkt.kind = hw::IoKind::kNetRx;
  pkt.size_bytes = config_.request_bytes;
  pkt.flow = conn.id;
  pkt.user_tag = Testbed::Tag(owner_, conn.id);
  if (conn.round_trip == 0) {
    pkt.dp_cost_hint = config_.setup_dp_cost_ns;
    conn.txn_start = bed_->sim().Now();
  }
  bed_->InjectFromWire(pkt);
}

RrResult RrRunner::Run(sim::Duration duration, sim::Duration warmup) {
  conns_.clear();
  for (int i = 0; i < config_.connections; ++i) {
    auto conn = std::make_unique<Conn>();
    conn->id = static_cast<uint64_t>(i);
    conn->rng = sim::Rng(bed_->config().seed * 1315423911u + i);
    conns_.push_back(std::move(conn));
  }

  // VM side: respond to each request.
  bed_->RegisterVmSink(owner_, [this](const hw::IoPacket& pkt, sim::SimTime) {
    if (counting_) {
      ++rx_pkts_;
    }
    hw::IoPacket reply = pkt;
    reply.kind = hw::IoKind::kNetTx;
    reply.size_bytes = config_.response_bytes;
    reply.created = 0;
    reply.dp_cost_hint = 0;
    bed_->InjectFromVm(reply, bed_->VmStackDelay());
  });

  // Client side: a response completes a round trip.
  bed_->RegisterWireSink(owner_, [this](const hw::IoPacket& pkt, sim::SimTime now) {
    if (counting_) {
      ++tx_pkts_;
    }
    uint64_t cid = pkt.user_tag & 0xffffffffffffULL;
    Conn& conn = *conns_[cid];
    ++conn.round_trip;
    if (conn.round_trip >= config_.round_trips_per_txn) {
      if (counting_) {
        ++txns_;
        txn_latency_us_.Add(sim::ToMicros(now - conn.txn_start));
      }
      conn.round_trip = 0;
      if (config_.think_time_mean > 0) {
        Conn* c = &conn;
        bed_->sim().Schedule(conn.rng.ExpDuration(config_.think_time_mean),
                             [this, c] { SendRequest(*c); });
        return;
      }
    }
    SendRequest(conn);
  });

  for (auto& conn : conns_) {
    SendRequest(*conn);
  }
  bed_->sim().RunFor(warmup);
  counting_ = true;
  txns_ = 0;
  rx_pkts_ = 0;
  tx_pkts_ = 0;
  sim::SimTime t0 = bed_->sim().Now();
  bed_->sim().RunFor(duration);
  double secs = sim::ToSeconds(bed_->sim().Now() - t0);
  counting_ = false;

  RrResult result;
  result.txn_per_sec = static_cast<double>(txns_) / secs;
  result.rx_pps = static_cast<double>(rx_pkts_) / secs;
  result.tx_pps = static_cast<double>(tx_pkts_) / secs;
  result.txn_latency_us = txn_latency_us_;
  return result;
}

// ---- StreamRunner --------------------------------------------------------------

StreamRunner::StreamRunner(Testbed* bed, StreamConfig config, uint16_t owner)
    : bed_(bed), config_(config), owner_(owner) {}

StreamResult StreamRunner::Run(sim::Duration duration, sim::Duration warmup) {
  struct Counters {
    uint64_t delivered = 0;
    uint64_t bytes = 0;
    bool counting = false;
    sim::Summary latency_us;
  };
  auto counters = std::make_shared<Counters>();

  auto on_delivery = [counters](const hw::IoPacket& pkt, sim::SimTime now) {
    if (!counters->counting) {
      return;
    }
    ++counters->delivered;
    counters->bytes += pkt.size_bytes;
    counters->latency_us.Add(sim::ToMicros(now - pkt.created));
  };
  bed_->RegisterVmSink(owner_, on_delivery);
  bed_->RegisterWireSink(owner_, on_delivery);

  // One source per active DP CPU per flow.
  std::vector<std::unique_ptr<dp::OpenLoopSource>> sources;
  size_t n = bed_->active_dp_cpus().size();
  for (size_t i = 0; i < n; ++i) {
    for (int f = 0; f < config_.flows_per_cpu; ++f) {
      dp::OpenLoopConfig ocfg;
      ocfg.rate_pps = config_.per_cpu_offered_pps / config_.flows_per_cpu;
      ocfg.size_bytes = config_.size_bytes;
      ocfg.process = config_.bursty ? dp::OpenLoopConfig::Process::kMmpp
                                    : dp::OpenLoopConfig::Process::kPoisson;
      if (config_.bursty) {
        // rate_pps is the valley rate; bursts multiply it.
        ocfg.rate_pps /= config_.burst_multiplier;
        ocfg.burst_multiplier = config_.burst_multiplier;
        ocfg.burst_mean = config_.burst_mean;
        ocfg.calm_mean = config_.calm_mean;
      }
      ocfg.kind = config_.tx_direction ? hw::IoKind::kNetTx : hw::IoKind::kNetRx;
      ocfg.flow = i;
      ocfg.user_tag = Testbed::Tag(owner_, i);
      sources.push_back(std::make_unique<dp::OpenLoopSource>(
          &bed_->sim(), &bed_->machine().accelerator(), bed_->queue_for_flow(i), ocfg,
          bed_->config().seed * 131 + i * 7 + f));
      sources.back()->Start();
    }
  }

  bed_->sim().RunFor(warmup);
  counters->counting = true;
  sim::SimTime t0 = bed_->sim().Now();
  bed_->sim().RunFor(duration);
  double secs = sim::ToSeconds(bed_->sim().Now() - t0);
  counters->counting = false;
  for (auto& src : sources) {
    src->Stop();
  }

  StreamResult result;
  result.delivered_pps = static_cast<double>(counters->delivered) / secs;
  result.delivered_gbps = static_cast<double>(counters->bytes) * 8.0 / secs / 1e9;
  result.latency_us = counters->latency_us;
  return result;
}

// ---- FioRunner --------------------------------------------------------------------

FioRunner::FioRunner(Testbed* bed, FioConfig config, uint16_t owner)
    : bed_(bed), config_(config), owner_(owner) {}

void FioRunner::Issue(uint64_t slot) {
  issue_time_[slot] = bed_->sim().Now();
  hw::IoPacket pkt;
  pkt.id = slot;
  pkt.kind = hw::IoKind::kBlockIo;
  pkt.size_bytes = config_.block_bytes;
  pkt.flow = slot;  // Spread slots across DP CPUs.
  pkt.user_tag = Testbed::Tag(owner_, slot);  // Submit phase: bit 47 clear.
  bed_->InjectFromVm(pkt);
}

FioResult FioRunner::Run(sim::Duration duration, sim::Duration warmup) {
  const uint64_t slots =
      static_cast<uint64_t>(config_.threads) * static_cast<uint64_t>(config_.iodepth);
  issue_time_.assign(slots, 0);
  constexpr uint64_t kCompletionBit = 1ULL << 47;

  bed_->RegisterStorageSink(owner_, [this](const hw::IoPacket& pkt, sim::SimTime now) {
    uint64_t payload = pkt.user_tag & 0xffffffffffffULL;
    if ((payload & kCompletionBit) == 0) {
      // Submit half processed by the DP: the backend serves it, then the
      // completion descriptor re-enters the accelerator.
      hw::IoPacket completion = pkt;
      completion.user_tag |= kCompletionBit;
      completion.created = 0;
      bed_->Inject(completion, config_.backend_latency);
      return;
    }
    uint64_t slot = payload & ~kCompletionBit;
    if (counting_) {
      ++completions_;
      io_latency_us_.Add(sim::ToMicros(now - issue_time_[slot]));
    }
    Issue(slot);
  });

  for (uint64_t slot = 0; slot < slots; ++slot) {
    Issue(slot);
  }
  bed_->sim().RunFor(warmup);
  counting_ = true;
  completions_ = 0;
  sim::SimTime t0 = bed_->sim().Now();
  bed_->sim().RunFor(duration);
  double secs = sim::ToSeconds(bed_->sim().Now() - t0);
  counting_ = false;

  FioResult result;
  result.iops = static_cast<double>(completions_) / secs;
  result.bw_mbps = result.iops * config_.block_bytes / 1e6;
  result.io_latency_us = io_latency_us_;
  return result;
}

// ---- synth_cp ------------------------------------------------------------------------

SynthCpResult RunSynthCp(Testbed* bed, int concurrency, double dp_utilization,
                         cp::SynthCpConfig cp_config) {
  bed->SpawnBackgroundCp();
  if (dp_utilization > 0) {
    bed->StartBackgroundBurstyLoad(dp_utilization, 512);
  }
  // Let the background settle.
  bed->sim().RunFor(sim::Millis(20));

  auto bench = std::make_unique<cp::SynthCpBenchmark>(&bed->kernel(), cp_config,
                                                      bed->config().seed ^ 0x51f7);
  sim::SimTime t0 = bed->sim().Now();
  bench->Launch(concurrency, bed->cp_task_cpus());
  sim::SimTime deadline = t0 + sim::Seconds(120);
  while (!bench->AllDone() && bed->sim().Now() < deadline) {
    bed->sim().RunFor(sim::Millis(20));
  }
  SynthCpResult result;
  result.exec_time_ms = bench->exec_time_ms();
  result.makespan = bed->sim().Now() - t0;
  bed->StopBackgroundLoad();
  return result;
}

// ---- VM startup storm -------------------------------------------------------------------

VmStartupResult RunVmStartupStorm(Testbed* bed, int num_vms, double arrival_rate_per_sec,
                                  double dp_utilization) {
  bed->SpawnBackgroundCp();
  if (dp_utilization > 0) {
    bed->StartBackgroundBurstyLoad(dp_utilization, 512);
  }
  bed->sim().RunFor(sim::Millis(20));

  sim::Rng arrivals(bed->config().seed ^ 0xa11);
  sim::SimTime at = bed->sim().Now();
  for (int i = 0; i < num_vms; ++i) {
    at += arrivals.ExpDuration(
        static_cast<sim::Duration>(1e9 / arrival_rate_per_sec));
    bed->sim().At(at, [bed] { bed->device_manager().StartVm(bed->cp_task_cpus()); });
  }
  sim::SimTime deadline = bed->sim().Now() + sim::Seconds(300);
  while ((bed->device_manager().started() < num_vms || !bed->device_manager().AllDone()) &&
         bed->sim().Now() < deadline) {
    bed->sim().RunFor(sim::Millis(50));
  }
  bed->StopBackgroundLoad();
  VmStartupResult result;
  result.startup_ms = bed->device_manager().startup_ms();
  return result;
}

}  // namespace taichi::exp
