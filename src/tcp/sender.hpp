// One direction of a TCP connection: the sending half.
//
// Implements a SACK-based Linux-2019-style sender: RACK time-based loss
// detection, tail-loss probes, RFC 6298 RTO with exponential backoff,
// pluggable congestion control (Cubic / BBRv1), optional fq-style pacing,
// and optional slow-start-after-idle — every knob Table 1 varies.
//
// Per-ACK recovery work is bounded by what the ACK changes: RACK walks a
// time-ordered list of the segments in flight and stops at the first one
// still inside the reorder window, and a count of segments awaiting
// retransmission answers "anything to retransmit?" without a scan.
#pragma once

#include <cstdint>
#include <map>
#include <memory>

#include "cc/bandwidth_sampler.hpp"
#include "cc/congestion_controller.hpp"
#include "cc/pacer.hpp"
#include "cc/rtt_estimator.hpp"
#include "net/transport_stats.hpp"
#include "sim/simulator.hpp"
#include "tcp/config.hpp"
#include "tcp/segment.hpp"
#include "util/arena.hpp"

namespace qperc::tcp {

class TcpSender {
 public:
  /// `send_segment` hands a fully built data segment (without ACK fields —
  /// the connection piggybacks those) to the wire. SmallFunction, not
  /// std::function: the capture is a connection pointer, and the segment-emit
  /// path runs hundreds of times per trial.
  using SendFn = SmallFunction<void(TcpSegment)>;

  TcpSender(sim::Simulator& simulator, const TcpConfig& config,
            std::uint64_t send_buffer_bytes, SendFn send_segment);
  ~TcpSender() = default;
  TcpSender(const TcpSender&) = delete;
  TcpSender& operator=(const TcpSender&) = delete;

  /// Activates the sender once the handshake completes. `initial_peer_rwnd`
  /// is the window advertised by the peer; `handshake_rtt` primes the
  /// RTT estimator.
  void on_established(std::uint64_t initial_peer_rwnd, SimDuration handshake_rtt);

  /// Appends application bytes to the stream. Returns the bytes accepted
  /// (bounded by the send buffer); the rest must wait for on_writable.
  std::uint64_t write(std::uint64_t bytes);
  [[nodiscard]] std::uint64_t writable_bytes() const;
  void set_on_writable(SmallFunction<void()> cb) { on_writable_ = std::move(cb); }

  /// Processes the acknowledgment fields of an incoming segment.
  void on_ack_received(const TcpSegment& segment);

  [[nodiscard]] const net::TransportStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const cc::RttEstimator& rtt() const noexcept { return rtt_; }
  [[nodiscard]] const cc::CongestionController& controller() const { return *cc_; }
  [[nodiscard]] std::uint64_t bytes_in_flight() const noexcept { return outstanding_bytes_; }
  [[nodiscard]] std::uint64_t bytes_unacked() const noexcept {
    return next_seq_ - highest_cum_ack_;
  }
  /// True when everything written has been cumulatively acknowledged.
  [[nodiscard]] bool all_acked() const noexcept {
    return highest_cum_ack_ == app_bytes_total_;
  }

  /// Identifies this sender in trace events (set by the owning connection).
  void set_trace_context(std::uint64_t flow, trace::Endpoint endpoint) noexcept {
    trace_flow_ = flow;
    trace_endpoint_ = endpoint;
  }

 private:
  struct SegmentRecord {
    std::uint64_t start = 0;
    std::uint64_t end = 0;
    std::uint32_t transmissions = 0;
    SimTime last_sent{0};
    std::uint64_t packet_id = 0;  // latest transmission, for rate sampling
    bool sacked = false;
    bool lost = false;         // detected lost, awaiting retransmission
    bool lost_by_rto = false;  // `lost` came from an RTO, not RACK/SACK
    bool outstanding = false;  // counted in the pipe
    bool delivered_counted = false;
    /// Links of the time-ordered sent list (RFC 8985 §6.1), which holds
    /// exactly the segments in flight: outstanding, neither SACKed nor lost.
    SegmentRecord* sent_prev = nullptr;
    SegmentRecord* sent_next = nullptr;
  };

  void maybe_send();
  void transmit(SegmentRecord& record, bool is_retransmission);
  /// The lowest-sequence segment awaiting retransmission (lost, not SACKed);
  /// nullptr when there is none.
  SegmentRecord* next_lost_segment();
  void sent_list_append(SegmentRecord& record);
  void sent_list_unlink(SegmentRecord& record);
  /// Takes a segment out of the loss-recovery bookkeeping (the sent list or
  /// the lost count) before it is SACKed or cumulatively acknowledged.
  void leave_recovery_state(SegmentRecord& record);
  /// Marks a segment that is neither SACKed nor lost as lost.
  void mark_lost(SegmentRecord& record, bool by_rto);
  /// Recounts the lost segments and re-walks the sent list (invariant
  /// builds only).
  void check_recovery_state() const;
  void mark_delivered(SegmentRecord& record, SimTime now, std::uint64_t& newly_delivered,
                      SimDuration& rtt_sample, SimTime& newest_delivered_sent_time,
                      std::uint64_t& newest_delivered_packet_id);
  void detect_losses(SimTime newest_delivered_sent_time);
  /// Reverts an RTO's loss markings and window collapse after the ACK stream
  /// proved the timeout spurious (original transmissions kept arriving).
  void undo_spurious_rto();
  void enter_recovery_if_needed();
  void rearm_retransmission_timer();
  void on_retransmission_timer();
  void restart_from_idle_if_needed();

  sim::Simulator& simulator_;
  TcpConfig config_;
  SendFn send_segment_;
  SmallFunction<void()> on_writable_;

  std::uint64_t trace_flow_ = 0;
  trace::Endpoint trace_endpoint_ = trace::Endpoint::kNone;

  std::unique_ptr<cc::CongestionController> cc_;
  /// Cached cc_->uses_delivery_rate(): selects the sampler ack entry point
  /// without a virtual call per acked segment.
  bool cc_wants_rate_ = false;
  cc::Pacer pacer_;
  cc::RttEstimator rtt_;
  cc::BandwidthSampler sampler_;
  net::TransportStats stats_;

  bool established_ = false;
  std::uint64_t app_bytes_total_ = 0;  // bytes the app has written
  std::uint64_t send_buffer_bytes_ = 0;  // set by the constructor
  std::uint64_t next_seq_ = 0;         // next new byte to packetize
  std::uint64_t highest_cum_ack_ = 0;  // snd_una
  std::uint64_t peer_rwnd_ = 0;
  std::uint64_t outstanding_bytes_ = 0;  // the SACK "pipe"
  /// Keyed by start seq. Nodes come from the trial arena: insert/erase churn
  /// during recovery never touches the heap (ordering and iteration are those
  /// of a plain std::map, so results are unchanged). Nodes never move, so the
  /// sent list links records in place.
  std::map<std::uint64_t, SegmentRecord, std::less<std::uint64_t>,
           ArenaAllocator<std::pair<const std::uint64_t, SegmentRecord>>>
      segments_;
  /// Oldest and newest transmission still in flight. Send times never
  /// decrease along the list, so RACK's walk from the head may stop at the
  /// first segment inside the reorder window.
  SegmentRecord* sent_head_ = nullptr;
  SegmentRecord* sent_tail_ = nullptr;
  /// Segments marked lost and not SACKed: the retransmission backlog.
  std::size_t lost_count_ = 0;
  /// No lost, un-SACKed segment starts below this sequence number, so the
  /// search for the next retransmission never rescans from the front.
  std::uint64_t lost_scan_from_ = 0;
  /// Reused scratch for the two passes that reorder records: traced RACK
  /// finds losses in send-time order but emits them in sequence order, and
  /// the RTO undo merges its segments back into the sent list by send time.
  ArenaVec<SegmentRecord*> scratch_;

  std::uint64_t next_packet_id_ = 1;
  SimTime last_send_time_{0};
  SimTime rack_newest_sent_time_{0};

  // Recovery episode tracking (one cwnd reduction per round trip of loss).
  std::uint64_t recovery_point_ = 0;
  // Round-trip accounting for the congestion controller.
  std::uint64_t round_end_seq_ = 0;

  // Retransmission timer: either a tail-loss probe or a full RTO.
  sim::Timer retx_timer_;
  bool timer_is_tlp_ = false;
  std::uint32_t rto_backoff_ = 0;
  bool tlp_fired_this_episode_ = false;

  /// Bytes declared lost since the congestion controller last consumed an
  /// AckSample (feeds BBR's long-term bandwidth estimator).
  std::uint64_t bytes_lost_since_ack_ = 0;
  /// Set by mark_delivered when an ACK covers the original transmission of a
  /// segment an RTO declared lost; consumed once per ACK.
  bool spurious_rto_detected_ = false;

  sim::Timer send_timer_;  // pacing release
};

}  // namespace qperc::tcp
