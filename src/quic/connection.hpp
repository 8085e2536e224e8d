// A full gQUIC connection through the emulated network.
//
// Handshake model (fresh cache, §3): inchoate CHLO -> REJ (server config)
// -> full CHLO + encrypted request: one round trip before the request
// leaves, versus TCP+TLS's two. With `zero_rtt` (ablation), the request
// accompanies the CHLO.
#pragma once

#include <cstdint>

#include "net/emulated_network.hpp"
#include "net/transport_stats.hpp"
#include "quic/config.hpp"
#include "quic/receive_side.hpp"
#include "quic/send_side.hpp"
#include "sim/simulator.hpp"

namespace qperc::quic {

class QuicConnection {
 public:
  struct Callbacks {
    SmallFunction<void()> on_established;
    /// Server side: request-stream progress (stream, contiguous bytes, fin).
    SmallFunction<void(std::uint64_t, std::uint64_t, bool)> on_request_stream;
    /// Client side: response-stream progress.
    SmallFunction<void(std::uint64_t, std::uint64_t, bool)> on_response_stream;
  };

  QuicConnection(sim::Simulator& simulator, net::EmulatedNetwork& network,
                 net::ServerId server, const QuicConfig& config, Callbacks callbacks);
  ~QuicConnection();
  QuicConnection(const QuicConnection&) = delete;
  QuicConnection& operator=(const QuicConnection&) = delete;

  void connect();
  [[nodiscard]] bool established() const noexcept { return client_established_; }

  /// Client -> server stream write (requests). Streams may be written before
  /// establishment; data flows once the handshake completes.
  void client_write_stream(std::uint64_t stream_id, std::uint64_t bytes, bool fin,
                           std::uint8_t priority) {
    client_send_.write_stream(stream_id, bytes, fin, priority);
  }
  /// Server -> client stream write (responses).
  void server_write_stream(std::uint64_t stream_id, std::uint64_t bytes, bool fin,
                           std::uint8_t priority) {
    server_send_.write_stream(stream_id, bytes, fin, priority);
  }

  [[nodiscard]] net::TransportStats stats() const;
  [[nodiscard]] net::FlowId flow() const noexcept { return flow_; }

 private:
  void client_on_packet(const net::Packet& packet);
  void server_on_packet(const net::Packet& packet);
  void emit(bool from_client, QuicPacket packet);
  void send_handshake(bool from_client, QuicHandshakeStep step,
                      std::uint8_t have_mask = 0);
  void on_handshake_timeout();
  void establish_client();
  void establish_server();

  sim::Simulator& simulator_;
  net::EmulatedNetwork& network_;
  net::ServerId server_;
  QuicConfig config_;
  Callbacks callbacks_;
  net::FlowId flow_;

  // All four sides live inline: one allocation per connection keeps the
  // per-trial budget in docs/PERFORMANCE.md honest. Their callbacks capture
  // `this` only and fire well after construction completes.
  QuicSendSide client_send_;
  QuicSendSide server_send_;
  QuicReceiveSide client_receive_;
  QuicReceiveSide server_receive_;

  bool chlo_sent_ = false;
  bool client_established_ = false;
  bool server_established_ = false;
  SimTime chlo_sent_at_{0};
  SimTime rej_sent_at_{0};
  std::uint8_t rej_received_mask_ = 0;
  sim::Timer handshake_timer_;
  std::uint32_t hs_backoff_ = 0;
  net::TransportStats handshake_stats_;
};

}  // namespace qperc::quic
