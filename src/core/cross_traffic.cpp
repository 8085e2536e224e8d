#include "core/cross_traffic.hpp"

#include <utility>

#include "core/protocol.hpp"
#include "util/arena.hpp"
#include "util/check.hpp"

namespace qperc::core {

namespace {

/// Cross-traffic origins live far above the page's origin ids so per-origin
/// accounting never aliases a real server.
constexpr std::uint32_t kCrossOriginBase = 0x40000000;

/// "Continuous" transfers are one burst too large to ever finish: the classic
/// backlogged elephant (1 TiB outlasts any trial by orders of magnitude).
constexpr std::uint64_t kContinuousBytes = std::uint64_t{1} << 40;

/// Builds one cross_protocol catalog entry. It runs once per process, behind
/// the entry's magic-static guard, so it is off the hot path.
QPERC_COLD_PATH ProtocolConfig make_cross_protocol(const char* name, Transport transport,
                                                   cc::CcKind congestion_control, bool pacing) {
  ProtocolConfig p;
  p.name = name;
  p.transport = transport;
  p.congestion_control = congestion_control;
  p.pacing = pacing;
  return p;
}

[[nodiscard]] const ProtocolConfig& cross_protocol(net::CrossMix mix, std::uint32_t index) {
  static const ProtocolConfig cubic =
      make_cross_protocol("cross-cubic", Transport::kTcp, cc::CcKind::kCubic, false);
  static const ProtocolConfig reno =
      make_cross_protocol("cross-reno", Transport::kTcp, cc::CcKind::kReno, false);
  static const ProtocolConfig bbr =
      make_cross_protocol("cross-bbr", Transport::kTcp, cc::CcKind::kBbr, true);
  static const ProtocolConfig quic =
      make_cross_protocol("cross-quic", Transport::kQuic, cc::CcKind::kCubic, false);
  switch (mix) {
    case net::CrossMix::kCubic: return cubic;
    case net::CrossMix::kReno: return reno;
    case net::CrossMix::kBbr: return bbr;
    case net::CrossMix::kQuic: return quic;
    case net::CrossMix::kMixed: return index % 2 == 0 ? cubic : quic;
  }
  return cubic;  // unreachable with valid input
}

[[nodiscard]] std::string_view cross_label(net::CrossMix mix, std::uint32_t index) {
  if (mix == net::CrossMix::kMixed) return index % 2 == 0 ? "cubic" : "quic";
  return net::to_string(mix);
}

}  // namespace

CrossTrafficSource::CrossTrafficSource(sim::Simulator& simulator,
                                       net::EmulatedNetwork& network,
                                       const net::ContentionConfig& config,
                                       std::uint32_t index, Rng rng)
    : simulator_(simulator),
      config_(config),
      index_(index),
      label_(cross_label(config.mix, index)),
      rng_(std::move(rng)) {
  const ProtocolConfig& protocol = cross_protocol(config.mix, index);
  const net::ServerId origin{kCrossOriginBase + index};
  if (protocol.transport == Transport::kQuic) {
    session_ = http::make_quic_session(simulator, network, origin, protocol.quic_config());
  } else {
    session_ = http::make_h2_session(simulator, network, origin, protocol.tcp_config());
  }
  burst_bytes_ = config.burst_bytes == 0 ? kContinuousBytes : config.burst_bytes;
}

void CrossTrafficSource::start(SimTime at) {
  started_ = true;
  started_at_ = at;
  simulator_.schedule_at(at, [this] { begin(); });
}

double CrossTrafficSource::goodput_bps(SimTime now) const noexcept {
  if (!started_ || now <= started_at_) return 0.0;
  const double seconds = to_seconds(now - started_at_);
  return static_cast<double>(bytes_delivered()) * 8.0 / seconds;
}

void CrossTrafficSource::begin() {
  session_->start();
  submit_burst();
}

void CrossTrafficSource::submit_burst() {
  http::Request request;
  request.object_id = bursts_started_++;
  request.response_body_bytes = burst_bytes_;
  session_->submit(request, [this](std::uint32_t /*object_id*/, std::uint64_t body_bytes,
                                   bool complete) { on_progress(body_bytes, complete); });
}

void CrossTrafficSource::on_progress(std::uint64_t body_bytes, bool complete) {
  current_burst_delivered_ = body_bytes;
  if (!complete) return;
  completed_bytes_ += body_bytes;
  current_burst_delivered_ = 0;
  // Seeded off period: exponential idle gap with the configured mean, drawn
  // from this flow's private fork (order-independent across flows).
  SimDuration gap{0};
  if (config_.off_time > SimDuration::zero()) {
    gap = from_seconds(rng_.exponential(to_seconds(config_.off_time)));
  }
  if (gap <= SimDuration::zero()) {
    submit_burst();
  } else {
    simulator_.schedule_in(gap, [this] { submit_burst(); });
  }
}

CrossTraffic::CrossTraffic(sim::Simulator& simulator, net::EmulatedNetwork& network,
                           const net::ContentionConfig& config, Rng rng) {
  count_ = config.flows;
  if (count_ == 0) return;
  Arena& arena = simulator.arena();
  sources_ = arena.allocate_array<CrossTrafficSource*>(count_);
  for (std::uint32_t i = 0; i < count_; ++i) {
    const auto endpoint = network.add_endpoint();
    network.set_flow_endpoint(endpoint);
    auto* storage = static_cast<CrossTrafficSource*>(
        arena.allocate(sizeof(CrossTrafficSource), alignof(CrossTrafficSource)));
    ::new (storage) CrossTrafficSource(simulator, network, config, i, rng.fork(i));
    sources_[i] = storage;
  }
  network.set_flow_endpoint(net::EmulatedNetwork::kDirectEndpoint);
  for (std::uint32_t i = 0; i < count_; ++i) {
    sources_[i]->start(SimTime{config.start_stagger * i});
  }
}

CrossTraffic::~CrossTraffic() {
  for (std::uint32_t i = 0; i < count_; ++i) sources_[i]->~CrossTrafficSource();
}

}  // namespace qperc::core
