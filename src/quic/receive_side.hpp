// The receiving half of one direction of a gQUIC connection: packet-number
// tracking for ACK-range generation, per-stream reassembly with independent
// delivery (the anti-head-of-line-blocking property §4.3 highlights), and
// flow-control credit management.
#pragma once

#include <cstdint>
#include <map>
#include <utility>

#include "quic/config.hpp"
#include "quic/packet.hpp"
#include "sim/simulator.hpp"
#include "util/arena.hpp"
#include "util/flat_map.hpp"

namespace qperc::quic {

class QuicReceiveSide {
 public:
  /// `request_ack` asks the connection to emit a pure ACK packet;
  /// `on_stream_progress(stream, contiguous_bytes, fin_complete)` reports
  /// per-stream in-order delivery to the application.
  QuicReceiveSide(sim::Simulator& simulator, const QuicConfig& config,
                  SmallFunction<void()> request_ack,
                  SmallFunction<void(std::uint64_t, std::uint64_t, bool)> on_stream_progress);
  QuicReceiveSide(const QuicReceiveSide&) = delete;
  QuicReceiveSide& operator=(const QuicReceiveSide&) = delete;

  /// Processes an incoming data packet's stream frames and packet number.
  void on_packet(const QuicPacket& packet);

  /// Points the outgoing packet's ACK frame at the newest ranges (capped at
  /// max_ack_ranges; nothing is copied) and moves pending window updates in.
  void fill_ack(QuicPacket& packet);

  [[nodiscard]] std::uint64_t stream_delivered(std::uint64_t stream_id) const;

  /// Identifies this side in trace events (set by the owning connection).
  void set_trace_context(std::uint64_t flow, trace::Endpoint endpoint) noexcept {
    trace_flow_ = flow;
    trace_endpoint_ = endpoint;
  }

 private:
  struct RecvStream {
    explicit RecvStream(Arena& arena)
        : out_of_order(
              ArenaAllocator<std::pair<const std::uint64_t, std::uint64_t>>(arena)) {}
    /// Reassembly ranges [start, end); nodes come from the trial arena.
    std::map<std::uint64_t, std::uint64_t, std::less<std::uint64_t>,
             ArenaAllocator<std::pair<const std::uint64_t, std::uint64_t>>>
        out_of_order;
    std::uint64_t contiguous = 0;
    std::uint64_t fin_offset = std::uint64_t(-1);
    bool fin_signaled = false;
    std::uint64_t advertised_limit = 0;
  };

  void on_stream_frame(const StreamFrame& frame);
  void maybe_update_windows(std::uint64_t stream_id, RecvStream& stream);

  sim::Simulator& simulator_;
  QuicConfig config_;
  SmallFunction<void()> request_ack_;
  SmallFunction<void(std::uint64_t, std::uint64_t, bool)> on_stream_progress_;

  std::uint64_t trace_flow_ = 0;
  trace::Endpoint trace_endpoint_ = trace::Endpoint::kNone;

  /// Received packet numbers as disjoint, non-adjacent [first, last] ranges,
  /// newest first (see AckRangeNode); nullptr before the first packet.
  const AckRangeNode* ranges_ = nullptr;
  std::uint32_t ack_eliciting_since_ack_ = 0;
  sim::Timer delayed_ack_timer_;

  /// Flat per-stream table: iteration order matches std::map, storage is
  /// arena-backed, and the per-frame try_emplace is a binary search over a
  /// contiguous slab instead of an rb-tree descent.
  FlatMap<std::uint64_t, RecvStream> streams_;
  ArenaVec<WindowUpdate> pending_window_updates_;
  std::uint64_t connection_consumed_ = 0;
  std::uint64_t connection_advertised_ = 0;  // set by the constructor
};

}  // namespace qperc::quic
