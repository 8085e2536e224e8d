#include "quic/connection.hpp"

#include <algorithm>
#include <utility>

namespace qperc::quic {
namespace {

/// gQUIC's crypto handshake retransmits more eagerly than TCP's 1 s SYN
/// timer (no RTT estimate exists yet for a fresh server).
constexpr SimDuration kInitialHandshakeTimeout = milliseconds(500);
constexpr std::uint8_t kRejFlightSize = 2;

}  // namespace

QuicConnection::QuicConnection(sim::Simulator& simulator, net::EmulatedNetwork& network,
                               net::ServerId server, const QuicConfig& config,
                               Callbacks callbacks)
    : simulator_(simulator),
      network_(network),
      server_(server),
      config_(config),
      callbacks_(std::move(callbacks)),
      flow_(network.allocate_flow_id()),
      client_send_(simulator_, config_, [this](QuicPacket p) { emit(true, std::move(p)); }),
      server_send_(simulator_, config_, [this](QuicPacket p) { emit(false, std::move(p)); }),
      client_receive_(
          simulator_, config_, [this] { emit(true, client_send_.make_control_packet()); },
          [this](std::uint64_t stream, std::uint64_t bytes, bool fin) {
            if (callbacks_.on_response_stream) {
              callbacks_.on_response_stream(stream, bytes, fin);
            }
          }),
      server_receive_(
          simulator_, config_, [this] { emit(false, server_send_.make_control_packet()); },
          [this](std::uint64_t stream, std::uint64_t bytes, bool fin) {
            if (callbacks_.on_request_stream) {
              callbacks_.on_request_stream(stream, bytes, fin);
            }
          }),
      handshake_timer_(simulator, [this] { on_handshake_timeout(); }) {
  const auto trace_flow = static_cast<std::uint64_t>(flow_);
  client_send_.set_trace_context(trace_flow, trace::Endpoint::kClient);
  server_send_.set_trace_context(trace_flow, trace::Endpoint::kServer);
  client_receive_.set_trace_context(trace_flow, trace::Endpoint::kClient);
  server_receive_.set_trace_context(trace_flow, trace::Endpoint::kServer);

  network_.register_client_flow(flow_, [this](net::Packet p) { client_on_packet(p); });
  network_.register_server_flow(flow_, [this](net::Packet p) { server_on_packet(p); });
}

QuicConnection::~QuicConnection() {
  network_.unregister_client_flow(flow_);
  network_.unregister_server_flow(flow_);
}

void QuicConnection::connect() {
  if (chlo_sent_) return;
  chlo_sent_ = true;
  chlo_sent_at_ = simulator_.now();
  simulator_.trace_event(trace::EventType::kHandshakeStarted, trace::Endpoint::kClient,
                         static_cast<std::uint64_t>(flow_), config_.zero_rtt ? 0 : 1);
  send_handshake(true, QuicHandshakeStep::kInchoateChlo);
  if (config_.zero_rtt) {
    // Cached server config: crypto completes immediately; the request rides
    // along with the CHLO.
    client_established_ = true;
    client_send_.on_established(SimDuration::zero());
    simulator_.trace_event(trace::EventType::kHandshakeCompleted, trace::Endpoint::kClient,
                           static_cast<std::uint64_t>(flow_), /*id=*/0);
    if (callbacks_.on_established) callbacks_.on_established();
    return;
  }
  handshake_timer_.set_in(kInitialHandshakeTimeout);
}

void QuicConnection::send_handshake(bool from_client, QuicHandshakeStep step,
                                    std::uint8_t have_mask) {
  const std::uint8_t flight_size =
      step == QuicHandshakeStep::kRej ? kRejFlightSize : std::uint8_t{1};
  for (std::uint8_t i = 0; i < flight_size; ++i) {
    // Selective flight retransmission: skip REJ pieces the client reported
    // it already holds. (A CHLO *carries* the mask instead.)
    if (step == QuicHandshakeStep::kRej && (have_mask & (1u << i))) continue;
    auto* packet = simulator_.arena().create<QuicPacket>();
    packet->handshake = step;
    packet->flight_index = i;
    packet->flight_size = flight_size;
    packet->flight_have_mask = have_mask;
    net::Packet wire;
    wire.flow = flow_;
    wire.dest_server = server_;
    wire.wire_bytes = kHandshakePacketWireBytes;
    wire.payload = packet;
    ++handshake_stats_.handshake_packets;
    simulator_.trace_event(trace::EventType::kHandshakePacketSent,
                           from_client ? trace::Endpoint::kClient : trace::Endpoint::kServer,
                           static_cast<std::uint64_t>(flow_),
                           static_cast<std::uint64_t>(step), kHandshakePacketWireBytes);
    if (from_client) {
      network_.client_send(std::move(wire));
    } else {
      network_.server_send(std::move(wire));
    }
  }
}

void QuicConnection::on_handshake_timeout() {
  if (client_established_) return;
  ++handshake_stats_.handshake_retransmissions;
  hs_backoff_ = std::min(hs_backoff_ + 1, 6u);
  simulator_.trace_event(trace::EventType::kHandshakeRetransmitted, trace::Endpoint::kClient,
                         static_cast<std::uint64_t>(flow_), /*id=*/0, /*bytes=*/0,
                         hs_backoff_);
  // Keep the REJ pieces that already arrived and advertise them, so the
  // server's answer only carries what is missing.
  send_handshake(true, QuicHandshakeStep::kInchoateChlo, rej_received_mask_);
  handshake_timer_.set_in(kInitialHandshakeTimeout * (1u << hs_backoff_));
}

void QuicConnection::establish_client() {
  if (client_established_) return;
  client_established_ = true;
  handshake_timer_.cancel();
  // Full CHLO completes the handshake and lets encrypted data flow.
  send_handshake(true, QuicHandshakeStep::kFullChlo);
  // A genuine round-trip measurement (the 0-RTT path passes the zero sentinel
  // in connect() and never reaches here); clamp to one tick so a zero-delay
  // profile still seeds the RTT estimator with a strictly positive sample.
  client_send_.on_established(std::max(simulator_.now() - chlo_sent_at_, SimDuration{1}));
  simulator_.trace_event(
      trace::EventType::kHandshakeCompleted, trace::Endpoint::kClient,
      static_cast<std::uint64_t>(flow_), /*id=*/1, /*bytes=*/0,
      static_cast<std::uint64_t>((simulator_.now() - chlo_sent_at_).count()));
  if (callbacks_.on_established) callbacks_.on_established();
}

void QuicConnection::establish_server() {
  if (server_established_) return;
  server_established_ = true;
  const SimDuration rtt =
      rej_sent_at_ > SimTime{0}
          ? std::max(simulator_.now() - rej_sent_at_, SimDuration{1})
          : SimDuration::zero();
  server_send_.on_established(rtt);
}

void QuicConnection::client_on_packet(const net::Packet& wire) {
  const auto& packet = static_cast<const QuicPacket&>(*wire.payload);
  if (packet.handshake == QuicHandshakeStep::kRej) {
    rej_received_mask_ |= static_cast<std::uint8_t>(1u << packet.flight_index);
    const auto all = static_cast<std::uint8_t>((1u << packet.flight_size) - 1);
    if (rej_received_mask_ == all) establish_client();
    return;
  }
  if (packet.handshake != QuicHandshakeStep::kNone) return;
  if (packet.has_ack || !packet.window_updates.empty()) {
    client_send_.on_ack_frame(packet);
    client_send_.on_window_updates(packet);
  }
  client_receive_.on_packet(packet);
}

void QuicConnection::server_on_packet(const net::Packet& wire) {
  const auto& packet = static_cast<const QuicPacket&>(*wire.payload);
  if (packet.handshake == QuicHandshakeStep::kInchoateChlo) {
    rej_sent_at_ = simulator_.now();
    send_handshake(false, QuicHandshakeStep::kRej, packet.flight_have_mask);
    return;
  }
  if (packet.handshake == QuicHandshakeStep::kFullChlo) {
    establish_server();
    return;
  }
  // Data implies the client completed the handshake (0-RTT or reordering).
  establish_server();
  if (packet.has_ack || !packet.window_updates.empty()) {
    server_send_.on_ack_frame(packet);
    server_send_.on_window_updates(packet);
  }
  server_receive_.on_packet(packet);
}

void QuicConnection::emit(bool from_client, QuicPacket packet) {
  // Piggyback current ACK state of the emitting endpoint.
  if (from_client) {
    client_receive_.fill_ack(packet);
  } else {
    server_receive_.fill_ack(packet);
  }
  std::uint32_t payload = 0;
  for (const auto& frame : packet.frames) payload += frame.length + kStreamFrameOverhead;
  // ACK-range encoding cost: ~5 bytes per range actually carried.
  payload += packet.ack_ranges.count * 5 +
             static_cast<std::uint32_t>(packet.window_updates.size() + packet.blocked) *
                 kControlFrameBytes;

  net::Packet wire;
  wire.flow = flow_;
  wire.dest_server = server_;
  wire.wire_bytes = payload + kQuicOverheadBytes + kUdpIpOverheadBytes;
  wire.payload = simulator_.arena().create<QuicPacket>(std::move(packet));
  if (from_client) {
    network_.client_send(std::move(wire));
  } else {
    network_.server_send(std::move(wire));
  }
}

net::TransportStats QuicConnection::stats() const {
  net::TransportStats total = handshake_stats_;
  total += client_send_.stats();
  total += server_send_.stats();
  return total;
}

}  // namespace qperc::quic
