#include "tcp/sender.hpp"

#include <algorithm>

#include "net/packet.hpp"
#include "util/check.hpp"

namespace qperc::tcp {
namespace {

constexpr SimDuration kMinTlpTimeout = milliseconds(10);

}  // namespace

TcpSender::TcpSender(sim::Simulator& simulator, const TcpConfig& config,
                     std::uint64_t send_buffer_bytes, SendFn send_segment)
    : simulator_(simulator),
      config_(config),
      send_segment_(std::move(send_segment)),
      cc_(cc::make_congestion_controller(config.congestion_control,
                                         config.initial_window_segments, config.mss,
                                         config.bbr_lt_bw)),
      pacer_(cc::PacerConfig{.enabled = config.pacing,
                             .initial_quantum_segments = 10,
                             .refill_quantum_segments = 2,
                             .segment_bytes = static_cast<std::uint32_t>(config.mss)}),
      sampler_(simulator.arena()),
      send_buffer_bytes_(send_buffer_bytes),
      segments_(ArenaAllocator<std::pair<const std::uint64_t, SegmentRecord>>(
          simulator.arena())),
      retx_timer_(simulator, [this] { on_retransmission_timer(); }),
      send_timer_(simulator, [this] { maybe_send(); }) {
  cc_wants_rate_ = cc_->uses_delivery_rate();
}

void TcpSender::on_established(std::uint64_t initial_peer_rwnd, SimDuration handshake_rtt) {
  QPERC_DCHECK(!established_) << "TCP sender established twice";
  established_ = true;
  peer_rwnd_ = initial_peer_rwnd;
  if (handshake_rtt > SimDuration::zero()) rtt_.on_rtt_sample(handshake_rtt);
  pacer_.set_rate(simulator_.now(), cc_->pacing_rate(rtt_.smoothed_rtt()));
  last_send_time_ = simulator_.now();
  maybe_send();
}

std::uint64_t TcpSender::write(std::uint64_t bytes) {
  const std::uint64_t accepted = std::min(bytes, writable_bytes());
  if (accepted == 0) return 0;
  restart_from_idle_if_needed();
  app_bytes_total_ += accepted;
  maybe_send();
  return accepted;
}

std::uint64_t TcpSender::writable_bytes() const {
  const std::uint64_t buffered = app_bytes_total_ - highest_cum_ack_;
  return buffered >= send_buffer_bytes_ ? 0 : send_buffer_bytes_ - buffered;
}

void TcpSender::restart_from_idle_if_needed() {
  if (!established_ || outstanding_bytes_ != 0 || next_seq_ != app_bytes_total_) return;
  const SimDuration idle = simulator_.now() - last_send_time_;
  if (idle < rtt_.rto()) return;
  if (config_.slow_start_after_idle) cc_->on_restart_after_idle();
  pacer_.on_restart_from_idle(simulator_.now());
}

TcpSender::SegmentRecord* TcpSender::next_lost_segment() {
  if (lost_count_ == 0) return nullptr;
  for (auto it = segments_.lower_bound(lost_scan_from_); it != segments_.end(); ++it) {
    if (it->second.lost && !it->second.sacked) {
      lost_scan_from_ = it->first;
      return &it->second;
    }
  }
  QPERC_CHECK(false) << "lost-segment count says " << lost_count_
                     << " but none is left to retransmit";
  return nullptr;
}

void TcpSender::sent_list_append(SegmentRecord& record) {
  QPERC_DCHECK(sent_tail_ == nullptr || sent_tail_->last_sent <= record.last_sent)
      << "sent list out of send-time order";
  record.sent_prev = sent_tail_;
  record.sent_next = nullptr;
  (sent_tail_ != nullptr ? sent_tail_->sent_next : sent_head_) = &record;
  sent_tail_ = &record;
}

void TcpSender::sent_list_unlink(SegmentRecord& record) {
  (record.sent_prev != nullptr ? record.sent_prev->sent_next : sent_head_) = record.sent_next;
  (record.sent_next != nullptr ? record.sent_next->sent_prev : sent_tail_) = record.sent_prev;
  record.sent_prev = nullptr;
  record.sent_next = nullptr;
}

void TcpSender::leave_recovery_state(SegmentRecord& record) {
  if (record.sacked) return;
  if (record.lost) {
    QPERC_DCHECK_GT(lost_count_, 0u);
    --lost_count_;
  } else if (record.outstanding) {
    sent_list_unlink(record);
  }
}

void TcpSender::mark_lost(SegmentRecord& record, bool by_rto) {
  QPERC_DCHECK(!record.sacked && !record.lost) << "segment marked lost twice";
  const auto len = record.end - record.start;
  record.lost = true;
  record.lost_by_rto = by_rto;
  if (record.outstanding) {
    sent_list_unlink(record);
    record.outstanding = false;
    QPERC_DCHECK_GE(outstanding_bytes_, len);
    outstanding_bytes_ -= len;
  }
  ++lost_count_;
  lost_scan_from_ = std::min(lost_scan_from_, record.start);
  sampler_.on_packet_lost(record.packet_id);
  bytes_lost_since_ack_ += len;
}

void TcpSender::check_recovery_state() const {
#if QPERC_INVARIANTS_ENABLED
  std::size_t lost = 0;
  std::size_t in_flight = 0;
  for (const auto& [start, record] : segments_) {
    if (record.lost && !record.sacked) {
      ++lost;
      QPERC_DCHECK_GE(start, lost_scan_from_) << "lost segment below the scan cursor";
    }
    if (record.outstanding && !record.sacked && !record.lost) ++in_flight;
  }
  QPERC_DCHECK_EQ(lost, lost_count_) << "lost-segment count differs from a full recount";
  std::size_t linked = 0;
  for (const SegmentRecord* record = sent_head_; record != nullptr;
       record = record->sent_next) {
    ++linked;
    QPERC_DCHECK(record->outstanding && !record->sacked && !record->lost)
        << "sent list holds a segment that is not in flight";
    QPERC_DCHECK(record->sent_next == nullptr ||
                 record->last_sent <= record->sent_next->last_sent)
        << "sent list out of send-time order";
  }
  QPERC_DCHECK_EQ(linked, in_flight) << "sent list misses a segment in flight";
#endif
}

void TcpSender::maybe_send() {
  if (!established_) return;
  QPERC_DCHECK_LE(highest_cum_ack_, next_seq_) << "SND.UNA ran past SND.NXT";
  QPERC_DCHECK_LE(next_seq_, app_bytes_total_);
  while (true) {
    const std::uint64_t cwnd = cc_->congestion_window();
    QPERC_DCHECK_GE(cwnd, config_.mss) << "congestion window collapsed below 1 MSS";
    if (outstanding_bytes_ >= cwnd) return;  // window full; ACK clock will resume

    SegmentRecord* candidate = next_lost_segment();
    bool is_retransmission = candidate != nullptr;
    if (candidate == nullptr) {
      if (next_seq_ >= app_bytes_total_) {
        // Nothing more to send although the window has room: app-limited.
        sampler_.on_app_limited();
        return;
      }
      // Respect the peer's advertised receive window for new data.
      const std::uint64_t in_window = next_seq_ - highest_cum_ack_;
      if (in_window >= peer_rwnd_) return;  // zero-window; opened by later ACKs
      const std::uint64_t len =
          std::min({config_.mss, app_bytes_total_ - next_seq_, peer_rwnd_ - in_window});
      auto [it, inserted] =
          segments_.try_emplace(next_seq_, SegmentRecord{.start = next_seq_,
                                                         .end = next_seq_ + len});
      candidate = &it->second;
      next_seq_ += len;
    }

    const auto wire_bytes =
        static_cast<std::uint32_t>(candidate->end - candidate->start) + kTcpHeaderBytes;
    const SimTime release = pacer_.next_send_time(simulator_.now(), wire_bytes);
    if (release > simulator_.now()) {
      // Undo speculative packetization of new data so a later call re-derives it.
      if (!is_retransmission) {
        next_seq_ = candidate->start;
        segments_.erase(candidate->start);
      }
      send_timer_.set_at(release);
      return;
    }
    transmit(*candidate, is_retransmission);
  }
}

void TcpSender::transmit(SegmentRecord& record, bool is_retransmission) {
  const SimTime now = simulator_.now();
  QPERC_DCHECK_LT(record.start, record.end) << "empty TCP segment packetized";
  QPERC_DCHECK_GE(now, last_send_time_) << "send timestamps must be monotone";
  QPERC_DCHECK(!record.sacked) << "transmitting a SACKed segment";
  const auto len = record.end - record.start;

  leave_recovery_state(record);
  record.transmissions += 1;
  record.last_sent = now;
  record.packet_id = next_packet_id_++;
  record.lost = false;
  record.lost_by_rto = false;
  if (!record.outstanding) {
    record.outstanding = true;
    outstanding_bytes_ += len;
  }
  sent_list_append(record);

  sampler_.on_packet_sent(record.packet_id, len, now, outstanding_bytes_ - len);
  cc_->on_packet_sent(now, outstanding_bytes_ - len, len);
  const std::uint32_t wire = static_cast<std::uint32_t>(len) + kTcpHeaderBytes;
  pacer_.on_packet_sent(now, wire);
  last_send_time_ = now;

  ++stats_.data_packets_sent;
  stats_.bytes_sent += len;
  if (is_retransmission) ++stats_.retransmissions;
  if (simulator_.trace() != nullptr) {
    simulator_.trace_event(is_retransmission ? trace::EventType::kPacketRetransmitted
                                             : trace::EventType::kPacketSent,
                           trace_endpoint_, trace_flow_, record.start, len,
                           record.transmissions);
  }

  TcpSegment segment;
  segment.has_data = true;
  segment.seq = record.start;
  segment.payload_bytes = static_cast<std::uint32_t>(len);
  send_segment_(std::move(segment));

  rearm_retransmission_timer();
}

void TcpSender::mark_delivered(SegmentRecord& record, SimTime now,
                               std::uint64_t& newly_delivered, SimDuration& rtt_sample,
                               SimTime& newest_delivered_sent_time,
                               std::uint64_t& newest_delivered_packet_id) {
  if (record.delivered_counted) return;
  record.delivered_counted = true;
  const auto len = record.end - record.start;
  if (record.lost && simulator_.trace() != nullptr) {
    // Declared lost but the original transmission was delivered after all.
    simulator_.trace_event(trace::EventType::kSpuriousLoss, trace_endpoint_, trace_flow_,
                           record.start, len, record.lost_by_rto ? 1 : 0);
  }
  if (record.lost && record.lost_by_rto && record.transmissions == 1) {
    // The ACK acknowledges the *original* transmission of a segment the RTO
    // declared lost: the timeout was spurious (F-RTO/RFC 3522 detection).
    spurious_rto_detected_ = true;
  }
  newly_delivered += len;
  stats_.bytes_delivered += len;
  if (record.outstanding) {
    record.outstanding = false;
    QPERC_DCHECK_GE(outstanding_bytes_, len);
    outstanding_bytes_ -= len;
  }
  if (record.transmissions == 1 && now >= record.last_sent) {
    // Karn's rule: only never-retransmitted segments produce RTT samples.
    // Clamp to one tick: a zero-delay profile can deliver and acknowledge in
    // the same instant, and RttEstimator requires strictly positive samples.
    rtt_sample = std::max({rtt_sample, now - record.last_sent, SimDuration{1}});
  }
  if (record.last_sent > newest_delivered_sent_time) {
    newest_delivered_sent_time = record.last_sent;
    newest_delivered_packet_id = record.packet_id;
  }
}

void TcpSender::on_ack_received(const TcpSegment& segment) {
  if (!segment.has_ack || !established_) return;
  // Always-on: an ACK for bytes that were never sent means sequence-space
  // corruption somewhere in the stack; every byte count downstream of here
  // would be garbage.
  QPERC_CHECK_LE(segment.cumulative_ack, next_seq_)
      << "peer acknowledged bytes beyond SND.NXT";
  const SimTime now = simulator_.now();
  // Window update rule (RFC 9293 §3.10.7.4 flavour): only segments at or
  // beyond the current cumulative ACK may change the send window. Under
  // reordering, a stale ACK arriving late would otherwise shrink peer_rwnd_
  // below what the receiver has since advertised and stall the sender — with
  // no zero-window probe to recover, a permanent deadlock.
  if (segment.cumulative_ack >= highest_cum_ack_) {
    peer_rwnd_ = segment.receive_window_bytes;
  }

  std::uint64_t newly_delivered = 0;
  SimDuration rtt_sample{0};
  SimTime newest_sent_time{0};
  std::uint64_t newest_packet_id = 0;

  // Rate samples: keep the fastest sample in this ACK (BBR's max filter
  // consumes it; taking the max here loses nothing).
  cc::RateSample best_rate_sample{};
  bool have_rate_sample = false;
  const auto consider_rate_sample = [&](std::uint64_t packet_id) {
    if (!cc_wants_rate_) {
      // Loss-based controller: same bookkeeping and same have_rate gate,
      // minus the rate arithmetic nobody reads.
      have_rate_sample |= sampler_.on_packet_acked_no_sample(packet_id, now);
    } else if (const auto sample = sampler_.on_packet_acked(packet_id, now)) {
      if (!have_rate_sample ||
          sample->delivery_rate > best_rate_sample.delivery_rate) {
        best_rate_sample = *sample;
      }
      have_rate_sample = true;
    }
  };

  // Cumulative acknowledgment.
  const bool cum_advanced = segment.cumulative_ack > highest_cum_ack_;
  if (cum_advanced) {
    auto it = segments_.begin();
    while (it != segments_.end() && it->second.end <= segment.cumulative_ack) {
      leave_recovery_state(it->second);
      mark_delivered(it->second, now, newly_delivered, rtt_sample, newest_sent_time,
                     newest_packet_id);
      consider_rate_sample(it->second.packet_id);
      it = segments_.erase(it);
    }
    highest_cum_ack_ = segment.cumulative_ack;
  }

  // Selective acknowledgments.
  for (const auto& block : segment.sacks()) {
    QPERC_DCHECK_LT(block.start, block.end) << "empty SACK block";
    QPERC_DCHECK_LE(block.end, next_seq_) << "SACK block beyond SND.NXT";
    for (auto it = segments_.lower_bound(block.start);
         it != segments_.end() && it->second.end <= block.end; ++it) {
      SegmentRecord& record = it->second;
      if (record.sacked) continue;
      leave_recovery_state(record);
      record.sacked = true;
      mark_delivered(record, now, newly_delivered, rtt_sample, newest_sent_time,
                     newest_packet_id);
      consider_rate_sample(record.packet_id);
    }
  }

  if (rtt_sample > SimDuration::zero()) rtt_.on_rtt_sample(rtt_sample);
  if (newest_sent_time > rack_newest_sent_time_) rack_newest_sent_time_ = newest_sent_time;

  if (spurious_rto_detected_) {
    spurious_rto_detected_ = false;
    undo_spurious_rto();
  }

  detect_losses(rack_newest_sent_time_);
  QPERC_DCHECK_LE(outstanding_bytes_, next_seq_ - highest_cum_ack_)
      << "pipe exceeds un-acknowledged sequence range";

  // Congestion-controller update.
  bool round_ended = false;
  if (highest_cum_ack_ >= round_end_seq_) {
    round_ended = true;
    round_end_seq_ = next_seq_;
  }
  cc::AckSample ack_sample;
  ack_sample.bytes_acked = newly_delivered;
  ack_sample.bytes_lost = bytes_lost_since_ack_;
  ack_sample.rtt = rtt_sample;
  ack_sample.smoothed_rtt = rtt_.smoothed_rtt();
  if (have_rate_sample) {
    ack_sample.delivery_rate = best_rate_sample.delivery_rate;
    ack_sample.is_app_limited = best_rate_sample.is_app_limited;
  }
  ack_sample.bytes_in_flight = outstanding_bytes_;
  ack_sample.round_trip_ended = round_ended;
  if (newly_delivered > 0) {
    cc_->on_ack(now, ack_sample);
    bytes_lost_since_ack_ = 0;  // consumed; keep accumulating otherwise
    rto_backoff_ = 0;
    tlp_fired_this_episode_ = false;
  }
  pacer_.set_rate(simulator_.now(), cc_->pacing_rate(rtt_.smoothed_rtt()));

  if (simulator_.trace() != nullptr) {
    simulator_.trace_event(
        trace::EventType::kMetricsUpdated, trace_endpoint_, trace_flow_,
        static_cast<std::uint64_t>(rtt_.smoothed_rtt().count()), outstanding_bytes_,
        cc_->congestion_window());
  }

  rearm_retransmission_timer();
  check_recovery_state();

  if (cum_advanced && on_writable_ && writable_bytes() > 0) on_writable_();
  maybe_send();
}

void TcpSender::undo_spurious_rto() {
  // The RTO that marked everything lost was bogus: original-transmission ACKs
  // are still arriving. Un-mark the not-yet-retransmitted segments so the
  // sender keeps waiting for their original ACKs instead of blasting a
  // go-back-N retransmission storm into an already-slow link, and undo the
  // window collapse (the path did not actually lose anything).
  scratch_.clear();
  for (auto& [start, record] : segments_) {
    if (!record.lost || !record.lost_by_rto || record.sacked) continue;
    record.lost = false;
    record.lost_by_rto = false;
    --lost_count_;
    if (!record.outstanding) {
      record.outstanding = true;
      outstanding_bytes_ += record.end - record.start;
    }
    scratch_.push_back(simulator_.arena(), &record);
  }
  // Back in flight: merge them into the sent list by send time (ties keep
  // sequence order; RACK treats equal send times alike).
  std::sort(scratch_.begin(), scratch_.end(),
            [](const SegmentRecord* a, const SegmentRecord* b) {
              return a->last_sent != b->last_sent ? a->last_sent < b->last_sent
                                                  : a->start < b->start;
            });
  SegmentRecord* next = sent_head_;
  for (SegmentRecord* record : scratch_) {
    while (next != nullptr && next->last_sent <= record->last_sent) next = next->sent_next;
    record->sent_next = next;
    record->sent_prev = next != nullptr ? next->sent_prev : sent_tail_;
    (record->sent_prev != nullptr ? record->sent_prev->sent_next : sent_head_) = record;
    (next != nullptr ? next->sent_prev : sent_tail_) = record;
  }
  rto_backoff_ = 0;
  ++stats_.spurious_timeouts;
  cc_->on_spurious_retransmission_timeout();
  pacer_.set_rate(simulator_.now(), cc_->pacing_rate(rtt_.smoothed_rtt()));
}

void TcpSender::detect_losses(SimTime newest_delivered_sent_time) {
  if (newest_delivered_sent_time == SimTime{0}) return;
  // RACK: a segment sent sufficiently before the newest delivered segment is
  // deemed lost. Reordering window: a quarter of the minimum RTT.
  const SimDuration reorder_window =
      rtt_.has_sample() ? std::max<SimDuration>(rtt_.min_rtt() / 4, milliseconds(1))
                        : SimDuration{milliseconds(5)};
  // The sent list holds exactly the segments RACK may mark (in flight) in
  // send-time order: every segment after the first one inside the window is
  // inside it too.
  const bool traced = simulator_.trace() != nullptr;
  if (traced) scratch_.clear();
  bool any_lost = false;
  while (sent_head_ != nullptr &&
         sent_head_->last_sent + reorder_window < newest_delivered_sent_time) {
    SegmentRecord& record = *sent_head_;
    mark_lost(record, /*by_rto=*/false);
    any_lost = true;
    if (traced) scratch_.push_back(simulator_.arena(), &record);
  }
  if (traced) {
    std::sort(scratch_.begin(), scratch_.end(),
              [](const SegmentRecord* a, const SegmentRecord* b) { return a->start < b->start; });
    for (const SegmentRecord* record : scratch_) {
      simulator_.trace_event(trace::EventType::kPacketLost, trace_endpoint_, trace_flow_,
                             record->start, record->end - record->start, /*value=*/0);
    }
  }
  if (any_lost) enter_recovery_if_needed();
}

void TcpSender::enter_recovery_if_needed() {
  if (highest_cum_ack_ < recovery_point_) return;  // already in this episode
  recovery_point_ = next_seq_;
  ++stats_.congestion_events;
  if (simulator_.trace() != nullptr) {
    simulator_.trace_event(trace::EventType::kCongestionEvent, trace_endpoint_, trace_flow_,
                           /*id=*/0, outstanding_bytes_, /*value=*/0);
  }
  cc_->on_congestion_event(simulator_.now(), outstanding_bytes_);
  pacer_.set_rate(simulator_.now(), cc_->pacing_rate(rtt_.smoothed_rtt()));
}

void TcpSender::rearm_retransmission_timer() {
  const bool has_outstanding = outstanding_bytes_ > 0;
  const bool has_lost = lost_count_ > 0;
  if (!has_outstanding && !has_lost) {
    retx_timer_.cancel();
    return;
  }
  const SimDuration rto = rtt_.rto() * (1u << std::min(rto_backoff_, 6u));
  // Tail-loss probe fires before the full RTO when eligible: something is in
  // flight, we have an RTT estimate, and no probe was spent this episode.
  if (has_outstanding && rtt_.has_sample() && !tlp_fired_this_episode_ &&
      rto_backoff_ == 0) {
    const SimDuration pto = std::max(2 * rtt_.smoothed_rtt(), kMinTlpTimeout);
    if (pto < rto) {
      timer_is_tlp_ = true;
      retx_timer_.set_in(pto);
      return;
    }
  }
  timer_is_tlp_ = false;
  retx_timer_.set_in(rto);
}

void TcpSender::on_retransmission_timer() {
  if (timer_is_tlp_) {
    // Probe with the highest outstanding segment to elicit a SACK.
    tlp_fired_this_episode_ = true;
    ++stats_.tail_probes;
    simulator_.trace_event(trace::EventType::kTlpFired, trace_endpoint_, trace_flow_);
    SegmentRecord* tail = nullptr;
    for (auto& [start, record] : segments_) {
      if (record.outstanding && !record.sacked) tail = &record;
    }
    if (tail != nullptr) {
      transmit(*tail, true);
    } else {
      rearm_retransmission_timer();
    }
    return;
  }

  // Full RTO: collapse the pipe, mark everything unacked as lost.
  ++stats_.timeouts;
  rto_backoff_ = std::min(rto_backoff_ + 1, 10u);
  simulator_.trace_event(trace::EventType::kRtoFired, trace_endpoint_, trace_flow_,
                         /*id=*/0, /*bytes=*/0, rto_backoff_);
  for (auto& [start, record] : segments_) {
    if (record.sacked || record.lost) continue;
    mark_lost(record, /*by_rto=*/true);
    if (simulator_.trace() != nullptr) {
      simulator_.trace_event(trace::EventType::kPacketLost, trace_endpoint_, trace_flow_,
                             record.start, record.end - record.start, /*value=*/1);
    }
  }
  recovery_point_ = next_seq_;
  cc_->on_retransmission_timeout();
  pacer_.set_rate(simulator_.now(), cc_->pacing_rate(rtt_.smoothed_rtt()));
  maybe_send();
  rearm_retransmission_timer();
  check_recovery_state();
}

}  // namespace qperc::tcp
