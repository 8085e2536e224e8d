// On-the-wire QUIC packet representation for the emulated network.
#pragma once

#include <cstdint>
#include <type_traits>

#include "net/packet.hpp"
#include "util/arena.hpp"

namespace qperc::quic {

enum class QuicHandshakeStep : std::uint8_t {
  kNone = 0,
  kInchoateChlo,  // client -> server, padded to a full packet
  kRej,           // server -> client: server config (two packets)
  kFullChlo,      // client -> server, completes the crypto handshake
};

struct StreamFrame {
  std::uint64_t stream_id = 0;
  std::uint64_t offset = 0;
  std::uint32_t length = 0;
  bool fin = false;
};

/// Flow-control credit grant (MAX_STREAM_DATA / MAX_DATA).
struct WindowUpdate {
  std::uint64_t stream_id = 0;  // 0 == connection-level
  std::uint64_t limit = 0;
};

/// One acknowledged packet-number range [first, second] (inclusive). Member
/// names match the std::pair this used to be; a plain aggregate is trivially
/// copyable (std::pair is not), which ArenaVec storage requires.
struct AckRange {
  std::uint64_t first = 0;
  std::uint64_t second = 0;
};

/// Per-packet overheads: short header + AEAD tag (~30 B) plus UDP/IP (28 B).
inline constexpr std::uint32_t kQuicOverheadBytes = 30;
inline constexpr std::uint32_t kUdpIpOverheadBytes = 28;
/// Framing overhead per stream frame inside a packet.
inline constexpr std::uint32_t kStreamFrameOverhead = 8;
/// Wire size of a window update or BLOCKED frame.
inline constexpr std::uint32_t kControlFrameBytes = 8;
/// Wire size of a padded handshake packet.
inline constexpr std::uint32_t kHandshakePacketWireBytes = 1392;

/// Frame lists are ArenaVecs over the trial arena, which makes the packet
/// trivially destructible (an arena requirement) and move-only; building a
/// packet allocates nothing beyond arena bumps.
struct QuicPacket final : net::Payload {
  QuicHandshakeStep handshake = QuicHandshakeStep::kNone;
  std::uint8_t flight_index = 0;
  std::uint8_t flight_size = 1;
  /// In a retried CHLO: bitmask of REJ-flight pieces already received, so
  /// the server resends only the missing ones (otherwise a policer bucket
  /// smaller than the flight livelocks the handshake).
  std::uint8_t flight_have_mask = 0;

  std::uint64_t packet_number = 0;
  bool ack_eliciting = false;
  /// BLOCKED frame: the sender is flow-control blocked with nothing in
  /// flight. The peer answers with its current limits.
  bool blocked = false;
  ArenaVec<StreamFrame> frames;

  bool has_ack = false;
  /// Received packet-number ranges [first, last], newest first, <= 256.
  ArenaVec<AckRange> ack_ranges;

  ArenaVec<WindowUpdate> window_updates;
};
static_assert(std::is_trivially_destructible_v<QuicPacket>,
              "QuicPacket lives in the trial arena");

}  // namespace qperc::quic
