#include "src/apps/nginx_sim.h"

namespace taichi::apps {

// One wrk connection's request cycle. A cycle is a sequence of round trips:
//   short HTTP : SYN handshake, request/response, FIN       (3 RTs)
//   long HTTP  : request/response                           (1 RT)
//   short HTTPS: SYN, TLS handshake, request/response, FIN  (4 RTs)
//   long HTTPS : request/response                           (1 RT)
struct NginxSim::Conn {
  uint64_t id = 0;
  int round_trip = 0;
  int total_round_trips = 1;
  sim::SimTime request_start = 0;
};

NginxSim::NginxSim(exp::Testbed* bed, NginxConfig config, uint16_t owner)
    : bed_(bed), config_(config), owner_(owner), rng_(bed->config().seed ^ 0x9618) {}

NginxSim::~NginxSim() = default;

void NginxSim::SendPacket(Conn& conn, bool setup) {
  hw::IoPacket pkt;
  pkt.id = conn.id;
  pkt.kind = hw::IoKind::kNetRx;
  pkt.size_bytes = config_.request_bytes;
  pkt.flow = conn.id;
  pkt.user_tag = exp::Testbed::Tag(owner_, conn.id);
  if (setup) {
    pkt.dp_cost_hint = config_.conn_setup_dp_cost_ns;
  }
  bed_->InjectFromWire(pkt);
}

void NginxSim::StartCycle(Conn& conn) {
  conn.round_trip = 0;
  int rts = 1;
  if (config_.short_connection) {
    rts += 2;  // SYN + FIN round trips.
    if (config_.https) {
      rts += 1;  // TLS handshake round trip.
    }
  }
  conn.total_round_trips = rts;
  conn.request_start = bed_->sim().Now();
  SendPacket(conn, /*setup=*/config_.short_connection);
}

NginxResult NginxSim::Run(sim::Duration duration, sim::Duration warmup) {
  conns_.clear();
  for (int i = 0; i < config_.connections; ++i) {
    auto conn = std::make_unique<Conn>();
    conn->id = static_cast<uint64_t>(i);
    conns_.push_back(std::move(conn));
  }

  // Server side: compute (plus TLS work on the handshake leg) and respond.
  bed_->RegisterVmSink(owner_, [this](const hw::IoPacket& pkt, sim::SimTime) {
    uint64_t cid = pkt.user_tag & 0xffffffffffffULL;
    Conn& conn = *conns_[cid];
    sim::Duration compute = config_.server_compute;
    bool handshake_leg = config_.short_connection && config_.https && conn.round_trip == 1;
    if (handshake_leg) {
      compute += config_.tls_handshake_compute;
    }
    hw::IoPacket resp = pkt;
    resp.kind = hw::IoKind::kNetTx;
    // Only the payload round trip carries the full response body.
    bool payload_leg = conn.round_trip == conn.total_round_trips - 1 -
                           (config_.short_connection ? 1 : 0) ||
                       !config_.short_connection;
    resp.size_bytes = payload_leg ? config_.response_bytes : 64;
    resp.created = 0;
    resp.dp_cost_hint = 0;
    bed_->InjectFromVm(resp, compute);
  });

  bed_->RegisterWireSink(owner_, [this](const hw::IoPacket& pkt, sim::SimTime now) {
    uint64_t cid = pkt.user_tag & 0xffffffffffffULL;
    Conn& conn = *conns_[cid];
    ++conn.round_trip;
    if (conn.round_trip >= conn.total_round_trips) {
      if (counting_) {
        ++requests_;
        request_latency_us_.Add(sim::ToMicros(now - conn.request_start));
      }
      StartCycle(conn);
      return;
    }
    SendPacket(conn, /*setup=*/false);
  });

  for (auto& conn : conns_) {
    StartCycle(*conn);
  }
  bed_->sim().RunFor(warmup);
  counting_ = true;
  requests_ = 0;
  sim::SimTime t0 = bed_->sim().Now();
  bed_->sim().RunFor(duration);
  double secs = sim::ToSeconds(bed_->sim().Now() - t0);
  counting_ = false;

  NginxResult result;
  result.requests_per_sec = static_cast<double>(requests_) / secs;
  result.request_latency_us = request_latency_us_;
  return result;
}

}  // namespace taichi::apps
