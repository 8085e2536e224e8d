// The one ledger of transport events, shared by the TCP and QUIC stacks and
// bumped where they send, retransmit, time out and ACK. It feeds the §4.3
// retransmission analysis, campaign totals and the ablation benches; the
// trace events emitted at the same points are checked against it.
#pragma once

#include <cstdint>

namespace qperc::net {

struct TransportStats {
  std::uint64_t data_packets_sent = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t timeouts = 0;
  /// Timeouts later proven spurious (original-transmission ACK arrived) and
  /// undone, F-RTO style.
  std::uint64_t spurious_timeouts = 0;
  std::uint64_t tail_probes = 0;
  std::uint64_t congestion_events = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_delivered = 0;
  std::uint64_t acks_sent = 0;
  std::uint64_t handshake_packets = 0;
  std::uint64_t handshake_retransmissions = 0;

  TransportStats& operator+=(const TransportStats& other) {
    data_packets_sent += other.data_packets_sent;
    retransmissions += other.retransmissions;
    timeouts += other.timeouts;
    spurious_timeouts += other.spurious_timeouts;
    tail_probes += other.tail_probes;
    congestion_events += other.congestion_events;
    bytes_sent += other.bytes_sent;
    bytes_delivered += other.bytes_delivered;
    acks_sent += other.acks_sent;
    handshake_packets += other.handshake_packets;
    handshake_retransmissions += other.handshake_retransmissions;
    return *this;
  }

  bool operator==(const TransportStats&) const = default;
};

}  // namespace qperc::net
