#include "quic/receive_side.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace qperc::quic {
namespace {

constexpr SimDuration kAckDelay = milliseconds(25);

}  // namespace

QuicReceiveSide::QuicReceiveSide(
    sim::Simulator& simulator, const QuicConfig& config, SmallFunction<void()> request_ack,
    SmallFunction<void(std::uint64_t, std::uint64_t, bool)> on_stream_progress)
    : simulator_(simulator),
      config_(config),
      request_ack_(std::move(request_ack)),
      on_stream_progress_(std::move(on_stream_progress)),
      received_(ArenaAllocator<std::pair<const std::uint64_t, std::uint64_t>>(
          simulator.arena())),
      delayed_ack_timer_(simulator, [this] { request_ack_(); }),
      streams_(simulator.arena()),
      connection_advertised_(config.connection_flow_window_bytes) {}

std::uint64_t QuicReceiveSide::stream_delivered(std::uint64_t stream_id) const {
  const auto it = streams_.find(stream_id);
  return it == streams_.end() ? 0 : it->second.contiguous;
}

void QuicReceiveSide::on_packet(const QuicPacket& packet) {
  const std::uint64_t pn = packet.packet_number;

  // Record the packet number in the received-range set.
  bool duplicate = false;
  auto it = received_.upper_bound(pn);
  if (it != received_.begin()) {
    auto prev = std::prev(it);
    if (pn <= prev->second) duplicate = true;
  }
  const bool out_of_order = pn < largest_received_;
  if (simulator_.trace() != nullptr) {
    std::uint64_t payload = 0;
    for (const auto& frame : packet.frames) payload += frame.length;
    simulator_.trace_event(trace::EventType::kPacketReceived, trace_endpoint_, trace_flow_,
                           pn, payload, duplicate ? 1 : 0);
  }
  if (!duplicate) {
    // Merge pn into ranges: extend neighbours where adjacent.
    auto next = received_.lower_bound(pn);
    const bool joins_next = next != received_.end() && next->first == pn + 1;
    auto prev = next == received_.begin() ? received_.end() : std::prev(next);
    const bool joins_prev = prev != received_.end() && prev->second + 1 == pn;
    if (joins_prev && joins_next) {
      prev->second = next->second;
      received_.erase(next);
    } else if (joins_prev) {
      prev->second = pn;
    } else if (joins_next) {
      const std::uint64_t end = next->second;
      received_.erase(next);
      received_[pn] = end;
    } else {
      received_[pn] = pn;
    }
    largest_received_ = std::max(largest_received_, pn);
    // The merge must leave ranges sorted, disjoint, and non-adjacent around
    // the insertion point (adjacent ranges should have coalesced).
    const auto cur = --received_.upper_bound(pn);
    QPERC_DCHECK_LE(cur->first, cur->second);
    if (cur != received_.begin()) {
      QPERC_DCHECK_GT(cur->first, std::prev(cur)->second + 1)
          << "received packet ranges failed to coalesce";
    }
    if (const auto after = std::next(cur); after != received_.end()) {
      QPERC_DCHECK_GT(after->first, cur->second + 1)
          << "received packet ranges failed to coalesce";
    }
  }

  if (!duplicate) {
    for (const auto& frame : packet.frames) on_stream_frame(frame);
  }

  if (packet.blocked) {
    // The peer is stalled on credit it never received (a window update rode
    // a lost ACK-only packet): re-advertise the limits of every unfinished
    // stream and of the connection. The sender keeps the max, so repeats
    // are harmless.
    for (const auto& [id, stream] : streams_) {
      if (stream.contiguous != stream.fin_offset) {
        pending_window_updates_.push_back(simulator_.arena(),
                                          WindowUpdate{id, stream.advertised_limit});
      }
    }
    pending_window_updates_.push_back(simulator_.arena(),
                                      WindowUpdate{0, connection_advertised_});
  }

  if (packet.ack_eliciting) {
    ++ack_eliciting_since_ack_;
    const bool immediate = out_of_order || !pending_window_updates_.empty() ||
                           ack_eliciting_since_ack_ >= 2 || duplicate;
    if (immediate) {
      request_ack_();
    } else if (!delayed_ack_timer_.is_armed()) {
      delayed_ack_timer_.set_in(kAckDelay);
    }
  }
}

void QuicReceiveSide::on_stream_frame(const StreamFrame& frame) {
  auto& stream = streams_.try_emplace(frame.stream_id, simulator_.arena()).first->second;
  if (stream.advertised_limit == 0) {
    stream.advertised_limit = config_.stream_flow_window_bytes;
  }
  if (frame.fin) {
    stream.fin_offset = frame.offset + frame.length;
  }

  const std::uint64_t start = frame.offset;
  const std::uint64_t end = frame.offset + frame.length;
  const std::uint64_t before = stream.contiguous;

  if (end > stream.contiguous || (frame.fin && frame.length == 0)) {
    if (start <= stream.contiguous) {
      stream.contiguous = std::max(stream.contiguous, end);
      auto it = stream.out_of_order.begin();
      while (it != stream.out_of_order.end() && it->first <= stream.contiguous) {
        stream.contiguous = std::max(stream.contiguous, it->second);
        it = stream.out_of_order.erase(it);
      }
    } else if (end > start) {
      // Merge into the out-of-order set.
      std::uint64_t new_start = start;
      std::uint64_t new_end = end;
      auto it = stream.out_of_order.lower_bound(start);
      if (it != stream.out_of_order.begin()) {
        auto prev = std::prev(it);
        if (prev->second >= start) {
          new_start = prev->first;
          new_end = std::max(new_end, prev->second);
          stream.out_of_order.erase(prev);
        }
      }
      it = stream.out_of_order.lower_bound(new_start);
      while (it != stream.out_of_order.end() && it->first <= new_end) {
        new_end = std::max(new_end, it->second);
        it = stream.out_of_order.erase(it);
      }
      stream.out_of_order[new_start] = new_end;
    }
  }

  QPERC_DCHECK_GE(stream.contiguous, before) << "stream reassembly moved backwards";
  QPERC_DCHECK(stream.out_of_order.empty() ||
               stream.out_of_order.begin()->first > stream.contiguous)
      << "out-of-order stream data at or below the contiguous mark";
  const std::uint64_t progress = stream.contiguous - before;
  connection_consumed_ += progress;
  maybe_update_windows(frame.stream_id, stream);

  const bool fin_complete = stream.contiguous == stream.fin_offset;
  if ((progress > 0 || (fin_complete && !stream.fin_signaled)) && on_stream_progress_) {
    if (fin_complete) stream.fin_signaled = true;
    on_stream_progress_(frame.stream_id, stream.contiguous, fin_complete);
  }
}

void QuicReceiveSide::maybe_update_windows(std::uint64_t stream_id, RecvStream& stream) {
  // The application consumes delivered bytes instantly; grant more credit
  // once half the window is used (gQUIC's session/stream flow controllers).
  QPERC_DCHECK_LE(stream.contiguous, stream.advertised_limit)
      << "peer wrote past the advertised stream flow-control limit";
  QPERC_DCHECK_LE(connection_consumed_, connection_advertised_)
      << "peer wrote past the advertised connection flow-control limit";
  if (stream.advertised_limit - stream.contiguous <
      config_.stream_flow_window_bytes / 2) {
    // Credit grants only ever move the limit forward.
    const std::uint64_t prior = stream.advertised_limit;
    stream.advertised_limit = stream.contiguous + config_.stream_flow_window_bytes;
    QPERC_DCHECK_GE(stream.advertised_limit, prior)
        << "stream flow-control limit moved backwards";
    pending_window_updates_.push_back(simulator_.arena(),
                                      WindowUpdate{stream_id, stream.advertised_limit});
  }
  if (connection_advertised_ - connection_consumed_ <
      config_.connection_flow_window_bytes / 2) {
    const std::uint64_t prior = connection_advertised_;
    connection_advertised_ =
        connection_consumed_ + config_.connection_flow_window_bytes;
    QPERC_DCHECK_GE(connection_advertised_, prior)
        << "connection flow-control limit moved backwards";
    pending_window_updates_.push_back(simulator_.arena(),
                                      WindowUpdate{0, connection_advertised_});
  }
}

void QuicReceiveSide::fill_ack(QuicPacket& packet) {
  if (received_.empty() && pending_window_updates_.empty()) return;
  packet.has_ack = !received_.empty();
  packet.ack_ranges.clear();
  // Newest ranges first, capped at the configured range budget. The emitted
  // frame must be sorted (descending) and non-overlapping — the sender-side
  // loss detector indexes unacked packets by these ranges. Sized once up
  // front: growing 4 -> 8 -> ... -> 256 would leave every outgrown buffer
  // behind in the trial arena.
  packet.ack_ranges.reserve(
      simulator_.arena(),
      static_cast<std::uint32_t>(std::min<std::size_t>(received_.size(), config_.max_ack_ranges)));
  for (auto it = received_.rbegin();
       it != received_.rend() && packet.ack_ranges.size() < config_.max_ack_ranges; ++it) {
    QPERC_DCHECK_LE(it->first, it->second);
    QPERC_DCHECK(packet.ack_ranges.empty() ||
                 it->second < packet.ack_ranges.back().first)
        << "emitted ACK ranges overlap";
    packet.ack_ranges.emplace_back(simulator_.arena(), it->first, it->second);
  }
  for (const WindowUpdate& update : pending_window_updates_) {
    packet.window_updates.push_back(simulator_.arena(), update);
  }
  pending_window_updates_.clear();
  ack_eliciting_since_ack_ = 0;
  delayed_ack_timer_.cancel();
}

}  // namespace qperc::quic
