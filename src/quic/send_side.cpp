#include "quic/send_side.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace qperc::quic {
namespace {

/// QUIC loss detection (packet threshold / time threshold, RFC 9002 values
/// that gQUIC also used).
constexpr std::uint64_t kPacketReorderThreshold = 3;
constexpr SimDuration kMaxAckDelay = milliseconds(25);

/// Above every packet number: the walk floor when nothing is unacked.
constexpr std::uint64_t kNoPacket = ~std::uint64_t{0};

}  // namespace

void QuicSendSide::LostLog::append(Arena& arena, std::uint64_t pn) {
  QPERC_DCHECK(pns_.empty() || pns_.back() == 0 || pns_.back() < pn)
      << "losses declared out of packet-number order";
  if (live_ == 0) front_ = pns_.size();
  pns_.push_back(arena, pn);
  ++live_;
}

template <class OnMatch>
void QuicSendSide::LostLog::merge_down(std::uint32_t& cursor, std::uint64_t first,
                                       std::uint64_t last, OnMatch on_match) {
  // Pass the entries above the range, then the ones inside it; tombstones
  // (0) pass either way.
  while (cursor > front_ && (pns_[cursor - 1] > last || pns_[cursor - 1] == 0)) --cursor;
  const std::uint32_t top = cursor;
  while (cursor > front_ && (pns_[cursor - 1] >= first || pns_[cursor - 1] == 0)) --cursor;
  for (std::uint32_t i = cursor; i < top; ++i) {
    if (pns_[i] == 0) continue;
    on_match(pns_[i]);
    pns_[i] = 0;
    --live_;
  }
  while (front_ < pns_.size() && pns_[front_] == 0) ++front_;
}

QuicSendSide::QuicSendSide(sim::Simulator& simulator, const QuicConfig& config, EmitFn emit)
    : simulator_(simulator),
      config_(config),
      emit_(std::move(emit)),
      cc_(cc::make_congestion_controller(config.congestion_control,
                                         config.initial_window_segments,
                                         config.max_payload_bytes, config.bbr_lt_bw)),
      pacer_(cc::PacerConfig{.enabled = config.pacing,
                             .initial_quantum_segments = 10,
                             .refill_quantum_segments = 2,
                             .segment_bytes = config.max_payload_bytes}),
      sampler_(simulator.arena()),
      streams_(simulator.arena()),
      retransmit_queue_(ArenaAllocator<StreamFrame>(simulator.arena())),
      unacked_(simulator.arena()),
      peer_connection_limit_(config.connection_flow_window_bytes),
      loss_or_pto_timer_(simulator, [this] { on_timer(); }),
      send_timer_(simulator, [this] { maybe_send(); }) {
  cc_wants_rate_ = cc_->uses_delivery_rate();
}

void QuicSendSide::on_established(SimDuration handshake_rtt) {
  QPERC_DCHECK(!established_) << "QUIC send side established twice";
  established_ = true;
  if (handshake_rtt > SimDuration::zero()) rtt_.on_rtt_sample(handshake_rtt);
  pacer_.set_rate(simulator_.now(), cc_->pacing_rate(rtt_.smoothed_rtt()));
  maybe_send();
}

void QuicSendSide::write_stream(std::uint64_t stream_id, std::uint64_t bytes, bool fin,
                                std::uint8_t priority) {
  auto [it, inserted] =
      streams_.try_emplace(stream_id, SendStream{config_.stream_flow_window_bytes});
  SendStream& stream = it->second;
  const bool was_pending = stream_pending(stream);  // fresh streams start idle
  stream.priority = priority;
  stream.write_bytes += bytes;
  if (fin) stream.fin = true;
  if (!was_pending && stream_pending(stream)) ++pending_streams_;
  if (bytes_in_flight_ == 0) pacer_.on_restart_from_idle(simulator_.now());
  maybe_send();
}

QuicPacket QuicSendSide::make_control_packet() {
  QuicPacket packet;
  packet.packet_number = next_packet_number_++;
  packet.ack_eliciting = false;
  ++stats_.acks_sent;
  simulator_.trace_event(trace::EventType::kAckSent, trace_endpoint_, trace_flow_,
                         packet.packet_number);
  return packet;
}

ArenaVec<StreamFrame> QuicSendSide::build_frames(std::uint32_t budget,
                                                 bool& is_retransmission) {
  ArenaVec<StreamFrame> frames;
  is_retransmission = false;
  // Nothing queued and no stream with unsent data or FIN: skip the scan
  // (no stream can be flow-control blocked either).
  if (retransmit_queue_.empty() && pending_streams_ == 0) {
#if QPERC_INVARIANTS_ENABLED
    for (const auto& [id, stream] : streams_) {
      QPERC_DCHECK(!stream_pending(stream)) << "pending_streams_ undercounts";
    }
#endif
    note_flow_control(false, 0);
    return frames;
  }
  bool fc_blocked_seen = false;
  std::uint64_t fc_blocked_stream = 0;

  // Retransmissions take precedence: they unblock the peer's reassembly.
  while (!retransmit_queue_.empty() && budget > kStreamFrameOverhead) {
    StreamFrame& pending = retransmit_queue_.front();
    const std::uint32_t take =
        std::min(pending.length, budget - kStreamFrameOverhead);
    if (take == 0 && !(pending.length == 0 && pending.fin)) break;
    StreamFrame frame = pending;
    frame.length = take;
    if (take < pending.length) {
      frame.fin = false;
      pending.offset += take;
      pending.length -= take;
    } else {
      retransmit_queue_.pop_front();
    }
    budget -= std::min(budget, take + kStreamFrameOverhead);
    frames.push_back(simulator_.arena(), frame);
    is_retransmission = true;
  }

  // New data: strict priority, round-robin within a priority level.
  while (budget > kStreamFrameOverhead) {
    SendStream* best = nullptr;
    std::uint64_t best_id = 0;
    // Two passes give round-robin: prefer ids after the last served one.
    for (int pass = 0; pass < 2 && best == nullptr; ++pass) {
      for (auto& [id, stream] : streams_) {
        if (pass == 0 && id <= last_served_stream_) continue;
        const bool has_data = stream.next_offset < stream.write_bytes;
        const bool has_fin = stream.fin && !stream.fin_packetized &&
                             stream.next_offset == stream.write_bytes;
        if (!has_data && !has_fin) continue;
        if (has_data && (stream.next_offset >= stream.peer_limit ||
                         connection_bytes_sent_ >= peer_connection_limit_)) {
          if (!fc_blocked_seen) {
            fc_blocked_seen = true;
            fc_blocked_stream = id;
          }
          continue;
        }
        if (best == nullptr || stream.priority < best->priority) {
          best = &stream;
          best_id = id;
        }
      }
    }
    if (best == nullptr) break;
    last_served_stream_ = best_id;

    QPERC_DCHECK_LE(best->next_offset, best->write_bytes);
    QPERC_DCHECK_LT(best->next_offset, best->peer_limit)
        << "serving a stream past its flow-control limit";
    QPERC_DCHECK_LT(connection_bytes_sent_, peer_connection_limit_)
        << "serving past the connection flow-control limit";
    const std::uint64_t cap = std::min(
        {static_cast<std::uint64_t>(budget - kStreamFrameOverhead),
         best->write_bytes - best->next_offset, best->peer_limit - best->next_offset,
         peer_connection_limit_ - connection_bytes_sent_});
    StreamFrame frame;
    frame.stream_id = best_id;
    frame.offset = best->next_offset;
    frame.length = static_cast<std::uint32_t>(cap);
    best->next_offset += cap;
    connection_bytes_sent_ += cap;
    if (best->fin && best->next_offset == best->write_bytes) {
      frame.fin = true;
      best->fin_packetized = true;
    }
    if (!stream_pending(*best)) {
      // The scan only picks pending streams, so serving one dry is the only
      // way the count drops.
      QPERC_DCHECK_GT(pending_streams_, 0u);
      --pending_streams_;
    }
    budget -= frame.length + kStreamFrameOverhead;
    frames.push_back(simulator_.arena(), frame);
  }

  note_flow_control(fc_blocked_seen, fc_blocked_stream);
  return frames;
}

void QuicSendSide::note_flow_control(bool blocked, std::uint64_t stream) {
  if (blocked == fc_blocked_) return;
  fc_blocked_ = blocked;
  if (blocked) {
    fc_blocked_since_ = simulator_.now();
    simulator_.trace_event(trace::EventType::kStreamBlocked, trace_endpoint_, trace_flow_,
                           stream);
  } else {
    simulator_.trace_event(
        trace::EventType::kStreamUnblocked, trace_endpoint_, trace_flow_, /*id=*/0,
        /*bytes=*/0,
        static_cast<std::uint64_t>((simulator_.now() - fc_blocked_since_).count()));
  }
}

void QuicSendSide::maybe_send(bool may_probe) {
  if (!established_) return;
  while (true) {
    QPERC_DCHECK_GE(cc_->congestion_window(), config_.max_payload_bytes)
        << "congestion window collapsed below one packet";
    if (bytes_in_flight_ >= cc_->congestion_window()) return;

    // Pacing gate, using a full-sized packet as the release unit.
    const std::uint32_t wire_estimate =
        config_.max_payload_bytes + kQuicOverheadBytes + kUdpIpOverheadBytes;
    const SimTime release = pacer_.next_send_time(simulator_.now(), wire_estimate);
    if (release > simulator_.now()) {
      send_timer_.set_at(release);
      return;
    }

    bool is_retransmission = false;
    auto frames = build_frames(config_.max_payload_bytes, is_retransmission);
    if (frames.empty()) {
      sampler_.on_app_limited();
      if (may_probe) arm_blocked_probe();
      return;
    }
    transmit(std::move(frames), is_retransmission);
  }
}

void QuicSendSide::transmit(ArenaVec<StreamFrame> frames, bool is_retransmission) {
  const SimTime now = simulator_.now();
  std::uint32_t payload = 0;
  std::uint64_t stream_bytes = 0;
  for (const auto& frame : frames) {
    payload += frame.length + kStreamFrameOverhead;
    stream_bytes += frame.length;
  }

  const std::uint64_t pn = next_packet_number_++;
  // Packet numbers are never reused and strictly grow within the space —
  // the property that removes TCP's retransmission ambiguity.
  QPERC_DCHECK(unacked_.empty() || pn > unacked_.back_key())
      << "packet number space not monotone";
  QPERC_DCHECK_GT(pn, largest_acked_);
  sampler_.on_packet_sent(pn, stream_bytes, now, bytes_in_flight_);
  cc_->on_packet_sent(now, bytes_in_flight_, payload);
  pacer_.on_packet_sent(now, payload + kQuicOverheadBytes + kUdpIpOverheadBytes);
  bytes_in_flight_ += payload;

  ++stats_.data_packets_sent;
  stats_.bytes_sent += stream_bytes;
  if (is_retransmission) ++stats_.retransmissions;
  if (simulator_.trace() != nullptr) {
    simulator_.trace_event(is_retransmission ? trace::EventType::kPacketRetransmitted
                                             : trace::EventType::kPacketSent,
                           trace_endpoint_, trace_flow_, pn, payload,
                           frames.size());
  }

  QuicPacket packet;
  packet.packet_number = pn;
  packet.ack_eliciting = true;
  // The retransmission record views the same arena-owned frame buffer the
  // wire packet carries; no copy, and the view survives the packet.
  unacked_[pn] = UnackedPacket{now, payload, stream_bytes, frames.data(), frames.size()};
  packet.frames = std::move(frames);

  emit_(std::move(packet));
  rearm_timer();
}

void QuicSendSide::on_ack_frame(const QuicPacket& packet) {
  if (!packet.has_ack || !established_) return;
  // Always-on: acknowledging a packet number we never allocated means the
  // packet-number space is corrupt and all delivery accounting is garbage.
  QPERC_CHECK(packet.ack_ranges.empty() ||
              packet.ack_ranges.front().second < next_packet_number_)
      << "peer acknowledged a packet number that was never sent";
  const SimTime now = simulator_.now();

  std::uint64_t newly_acked = 0;
  SimDuration rtt_sample{0};
  cc::RateSample best_rate{};
  bool have_rate = false;

#if QPERC_INVARIANTS_ENABLED
  // Ranges arrive newest-first: each [first, last] must be well-formed and
  // sit strictly below the previous range (sorted, non-overlapping). Checked
  // over every range, also those the walk below never reaches.
  for (std::uint32_t i = 0; i < packet.ack_ranges.size(); ++i) {
    const AckRange& range = packet.ack_ranges[i];
    QPERC_DCHECK_LE(range.first, range.second) << "inverted ACK range";
    QPERC_DCHECK(i == 0 || range.second < packet.ack_ranges[i - 1].first)
        << "ACK ranges out of order or overlapping";
  }
#endif

  // A range acts only on packet numbers still unacked, still in the PTO set
  // or, traced, still in the trace set. The receiver never forgets a hole,
  // so most of a long connection's ranges name packets long settled: walk
  // newest-first and stop at the first range ending below all three sets.
  // The sets only shrink during the walk, so the floor stays a lower bound.
  const bool traced = simulator_.trace() != nullptr;
  const std::uint64_t oldest_unacked =
      unacked_.empty() ? kNoPacket : unacked_.begin()->first;
  std::uint64_t floor = oldest_unacked;
  if (!pto_lost_.empty()) floor = std::min(floor, pto_lost_.oldest());
  if (traced && !traced_lost_.empty()) floor = std::min(floor, traced_lost_.oldest());
  std::uint32_t pto_cursor = pto_lost_.merge_start();
  std::uint32_t traced_cursor = traced_lost_.merge_start();

  bool spurious_pto = false;
  for (const auto& [first, last] : packet.ack_ranges) {
    if (last < floor) break;
    // An acked packet the PTO path declared lost: the probe timeout was
    // spurious (monotone packet numbers make this unambiguous — the range
    // can only name the original transmission).
    pto_lost_.merge_down(pto_cursor, first, last, [&](std::uint64_t) { spurious_pto = true; });
    if (traced) {
      // A packet we declared lost turns out to have been received.
      traced_lost_.merge_down(traced_cursor, first, last, [&](std::uint64_t pn) {
        simulator_.trace_event(trace::EventType::kSpuriousLoss, trace_endpoint_, trace_flow_,
                               pn);
      });
    }
    if (last < oldest_unacked) continue;
    auto it = unacked_.lower_bound(first);
    while (it != unacked_.end() && it->first <= last) {
      const std::uint64_t pn = it->first;
      UnackedPacket& up = it->second;
      newly_acked += up.stream_bytes;
      stats_.bytes_delivered += up.stream_bytes;
      QPERC_DCHECK_GE(bytes_in_flight_, up.payload_bytes);
      bytes_in_flight_ -= up.payload_bytes;
      if (pn > largest_acked_) {
        largest_acked_ = pn;
        // Clamp to one tick: a zero-delay profile can acknowledge in the
        // sending instant, and RttEstimator requires positive samples.
        rtt_sample = std::max(now - up.sent_time, SimDuration{1});
      }
      if (!cc_wants_rate_) {
        // Loss-based controller: same bookkeeping and same have_rate gate,
        // minus the rate arithmetic nobody reads.
        have_rate |= sampler_.on_packet_acked_no_sample(pn, now);
      } else if (const auto sample = sampler_.on_packet_acked(pn, now)) {
        if (!have_rate || sample->delivery_rate > best_rate.delivery_rate) {
          best_rate = *sample;
        }
        have_rate = true;
      }
      it = unacked_.erase(it);
    }
  }

  if (rtt_sample > SimDuration::zero()) rtt_.on_rtt_sample(rtt_sample);

  if (spurious_pto) {
    pto_backoff_ = 0;
    ++stats_.spurious_timeouts;
    cc_->on_spurious_retransmission_timeout();
  }

  detect_losses(now);

  bool round_ended = false;
  if (largest_acked_ >= round_end_pn_) {
    round_ended = true;
    round_end_pn_ = next_packet_number_;
  }
  if (newly_acked > 0 || have_rate) {
    cc::AckSample sample;
    sample.bytes_acked = newly_acked;
    sample.bytes_lost = bytes_lost_since_ack_;
    sample.rtt = rtt_sample;
    sample.smoothed_rtt = rtt_.smoothed_rtt();
    if (have_rate) {
      sample.delivery_rate = best_rate.delivery_rate;
      sample.is_app_limited = best_rate.is_app_limited;
    }
    sample.bytes_in_flight = bytes_in_flight_;
    sample.round_trip_ended = round_ended;
    cc_->on_ack(now, sample);
    bytes_lost_since_ack_ = 0;  // consumed; keep accumulating otherwise
    pto_backoff_ = 0;
  }
  pacer_.set_rate(simulator_.now(), cc_->pacing_rate(rtt_.smoothed_rtt()));

  if (simulator_.trace() != nullptr) {
    simulator_.trace_event(
        trace::EventType::kMetricsUpdated, trace_endpoint_, trace_flow_,
        static_cast<std::uint64_t>(rtt_.smoothed_rtt().count()), bytes_in_flight_,
        cc_->congestion_window());
  }

  rearm_timer();
  maybe_send(/*may_probe=*/false);
}

void QuicSendSide::on_window_updates(const QuicPacket& packet) {
  for (const auto& update : packet.window_updates) {
    if (update.stream_id == 0) {
      peer_connection_limit_ = std::max(peer_connection_limit_, update.limit);
    } else if (const auto it = streams_.find(update.stream_id); it != streams_.end()) {
      it->second.peer_limit = std::max(it->second.peer_limit, update.limit);
    }
  }
  maybe_send();
}

void QuicSendSide::requeue_lost(UnackedPacket& packet) {
  for (std::uint32_t i = 0; i < packet.frame_count; ++i) {
    const StreamFrame& frame = packet.frames[i];
    if (frame.length == 0 && !frame.fin) continue;
    retransmit_queue_.push_back(frame);
  }
}

void QuicSendSide::enter_recovery_if_needed(std::uint64_t lost_pn) {
  if (lost_pn <= recovery_end_pn_) return;
  recovery_end_pn_ = next_packet_number_;
  ++stats_.congestion_events;
  if (simulator_.trace() != nullptr) {
    simulator_.trace_event(trace::EventType::kCongestionEvent, trace_endpoint_, trace_flow_,
                           lost_pn, bytes_in_flight_);
  }
  cc_->on_congestion_event(simulator_.now(), bytes_in_flight_);
  pacer_.set_rate(simulator_.now(), cc_->pacing_rate(rtt_.smoothed_rtt()));
}

void QuicSendSide::detect_losses(SimTime now) {
  if (largest_acked_ == 0) return;
  const SimDuration rtt_basis = rtt_.has_sample()
                                    ? std::max(rtt_.smoothed_rtt(), rtt_.latest_rtt())
                                    : SimDuration{milliseconds(100)};
  const SimDuration loss_delay = rtt_basis * 9 / 8;
  loss_deadline_ = kNoTime;

  std::uint64_t largest_lost = 0;
  auto it = unacked_.begin();
  while (it != unacked_.end() && it->first < largest_acked_) {
    const std::uint64_t pn = it->first;
    UnackedPacket& up = it->second;
    const bool threshold_lost = largest_acked_ - pn >= kPacketReorderThreshold;
    const bool time_lost = up.sent_time + loss_delay <= now;
    if (threshold_lost || time_lost) {
      QPERC_DCHECK_GE(bytes_in_flight_, up.payload_bytes);
      bytes_in_flight_ -= up.payload_bytes;
      sampler_.on_packet_lost(pn);
      bytes_lost_since_ack_ += up.stream_bytes;
      requeue_lost(up);
      largest_lost = pn;
      if (simulator_.trace() != nullptr) {
        traced_lost_.append(simulator_.arena(), pn);
        simulator_.trace_event(trace::EventType::kPacketLost, trace_endpoint_, trace_flow_,
                               pn, up.payload_bytes, /*value=*/0);
      }
      it = unacked_.erase(it);
    } else {
      loss_deadline_ = std::min(loss_deadline_, up.sent_time + loss_delay);
      ++it;
    }
  }
  if (largest_lost != 0) enter_recovery_if_needed(largest_lost);
}

SimDuration QuicSendSide::probe_timeout() const {
  const SimDuration base = rtt_.has_sample()
                               ? rtt_.smoothed_rtt() +
                                     std::max<SimDuration>(4 * rtt_.rtt_var(),
                                                           milliseconds(1)) +
                                     kMaxAckDelay
                               : SimDuration{seconds(1)};
  return base * (1u << std::min(pto_backoff_, 6u));
}

void QuicSendSide::rearm_timer() {
  const bool has_retransmittable = !unacked_.empty() || !retransmit_queue_.empty();
  if (!has_retransmittable) {
    loss_or_pto_timer_.cancel();
    return;
  }
  if (loss_deadline_ != kNoTime && loss_deadline_ != SimTime{0}) {
    timer_is_loss_ = true;
    loss_or_pto_timer_.set_at(loss_deadline_);
    return;
  }
  timer_is_loss_ = false;
  loss_or_pto_timer_.set_in(probe_timeout());
}

void QuicSendSide::arm_blocked_probe() {
  if (!fc_blocked_ || !unacked_.empty() || !retransmit_queue_.empty() ||
      loss_or_pto_timer_.is_armed()) {
    return;
  }
  timer_is_loss_ = false;
  loss_or_pto_timer_.set_in(probe_timeout());
}

void QuicSendSide::on_timer() {
  if (timer_is_loss_) {
    loss_deadline_ = kNoTime;
    detect_losses(simulator_.now());
    rearm_timer();
    maybe_send();
    return;
  }
  // Probe timeout: retransmit the oldest unacked packet's frames (bypassing
  // the congestion window) to elicit an ACK.
  ++pto_backoff_;
  ++stats_.tail_probes;
  simulator_.trace_event(trace::EventType::kTlpFired, trace_endpoint_, trace_flow_,
                         /*id=*/0, /*bytes=*/0, pto_backoff_);
  if (pto_backoff_ >= 2) {
    ++stats_.timeouts;
    simulator_.trace_event(trace::EventType::kRtoFired, trace_endpoint_, trace_flow_,
                           /*id=*/0, /*bytes=*/0, pto_backoff_);
  }
  if (!unacked_.empty()) {
    auto it = unacked_.begin();
    UnackedPacket up = std::move(it->second);
    QPERC_DCHECK_GE(bytes_in_flight_, up.payload_bytes);
    bytes_in_flight_ -= up.payload_bytes;
    sampler_.on_packet_lost(it->first);
    bytes_lost_since_ack_ += up.stream_bytes;
    pto_lost_.append(simulator_.arena(), it->first);
    if (simulator_.trace() != nullptr) {
      traced_lost_.append(simulator_.arena(), it->first);
      simulator_.trace_event(trace::EventType::kPacketLost, trace_endpoint_, trace_flow_,
                             it->first, up.payload_bytes, /*value=*/1);
    }
    unacked_.erase(it);
    requeue_lost(up);
    bool is_retx = false;
    auto frames = build_frames(config_.max_payload_bytes, is_retx);
    if (!frames.empty()) transmit(std::move(frames), true);
  } else if (!retransmit_queue_.empty()) {
    bool is_retx = false;
    auto frames = build_frames(config_.max_payload_bytes, is_retx);
    if (!frames.empty()) transmit(std::move(frames), true);
  } else if (fc_blocked_) {
    // RFC 9000 §4.1 / gQUIC BLOCKED: an ack-eliciting probe the peer
    // answers with its current limits. Not tracked as unacked; the re-armed
    // PTO below repeats it, with backoff, until credit arrives.
    QuicPacket probe;
    probe.packet_number = next_packet_number_++;
    probe.ack_eliciting = true;
    probe.blocked = true;
    emit_(std::move(probe));
  }
  rearm_timer();
  arm_blocked_probe();
}

}  // namespace qperc::quic
