#include "src/apps/mysql_sim.h"

#include <algorithm>

namespace taichi::apps {

namespace {
constexpr uint64_t kIoBit = 1ULL << 47;
}

MysqlSim::MysqlSim(exp::Testbed* bed, MysqlConfig config, uint16_t owner)
    : bed_(bed), config_(config), owner_(owner), rng_(bed->config().seed ^ 0x5041) {}

void MysqlSim::SendQuery(uint64_t thread) {
  issued_[thread] = bed_->sim().Now();
  hw::IoPacket pkt;
  pkt.id = thread;
  pkt.kind = hw::IoKind::kNetRx;
  pkt.size_bytes = config_.request_bytes;
  pkt.flow = thread;
  pkt.user_tag = exp::Testbed::Tag(owner_, thread);
  bed_->InjectFromWire(pkt);
}

void MysqlSim::FinishServerSide(uint64_t thread) {
  hw::IoPacket resp;
  resp.id = thread;
  resp.kind = hw::IoKind::kNetTx;
  resp.size_bytes = config_.response_bytes;
  resp.flow = thread;
  resp.user_tag = exp::Testbed::Tag(owner_, thread);
  bed_->InjectFromVm(resp);
}

MysqlResult MysqlSim::Run(sim::Duration duration, sim::Duration warmup) {
  issued_.assign(config_.threads, 0);

  // Query arrives at the VM: server-side execution, optionally via storage.
  bed_->RegisterVmSink(owner_, [this](const hw::IoPacket& pkt, sim::SimTime) {
    uint64_t thread = pkt.user_tag & 0xffffffffffULL;
    sim::Duration compute = rng_.ExpDuration(config_.server_compute_mean);
    bool needs_io = rng_.Bernoulli(config_.storage_io_prob);
    bed_->sim().Schedule(compute, [this, thread, needs_io] {
      if (!needs_io) {
        FinishServerSide(thread);
        return;
      }
      hw::IoPacket io;
      io.id = thread;
      io.kind = hw::IoKind::kBlockIo;
      io.size_bytes = 4096;
      io.flow = thread;
      io.user_tag = exp::Testbed::Tag(owner_, thread);
      bed_->InjectFromVm(io);
    });
  });

  // Storage leg: submit processed by DP -> backend -> completion -> respond.
  bed_->RegisterStorageSink(owner_, [this](const hw::IoPacket& pkt, sim::SimTime) {
    uint64_t payload = pkt.user_tag & 0xffffffffffffULL;
    if ((payload & kIoBit) == 0) {
      hw::IoPacket completion = pkt;
      completion.user_tag |= kIoBit;
      completion.created = 0;
      bed_->Inject(completion, config_.backend_latency);
      return;
    }
    FinishServerSide(payload & ~kIoBit & 0xffffffffffULL);
  });

  // Result set back at the client: count and issue the next query.
  bed_->RegisterWireSink(owner_, [this](const hw::IoPacket& pkt, sim::SimTime now) {
    uint64_t thread = pkt.user_tag & 0xffffffffffULL;
    if (counting_) {
      ++queries_;
      ++window_queries_;
      query_latency_us_.Add(sim::ToMicros(now - issued_[thread]));
      if (now - window_start_ >= config_.sample_window) {
        window_counts_.push_back(window_queries_);
        window_queries_ = 0;
        window_start_ = now;
      }
    }
    SendQuery(thread);
  });

  for (int t = 0; t < config_.threads; ++t) {
    SendQuery(static_cast<uint64_t>(t));
  }
  bed_->sim().RunFor(warmup);
  counting_ = true;
  window_start_ = bed_->sim().Now();
  sim::SimTime t0 = bed_->sim().Now();
  bed_->sim().RunFor(duration);
  double secs = sim::ToSeconds(bed_->sim().Now() - t0);
  counting_ = false;

  MysqlResult result;
  result.avg_qps = static_cast<double>(queries_) / secs;
  double max_window = 0;
  for (uint64_t w : window_counts_) {
    max_window = std::max(max_window, static_cast<double>(w));
  }
  result.max_qps = max_window / sim::ToSeconds(config_.sample_window);
  result.avg_tps = result.avg_qps / config_.queries_per_transaction;
  result.max_tps = result.max_qps / config_.queries_per_transaction;
  result.query_latency_us = query_latency_us_;
  return result;
}

}  // namespace taichi::apps
