// The sending half of one direction of a gQUIC connection.
//
// Key behavioural differences from the TCP sender that the paper leans on:
//  * packet-number space with no retransmission ambiguity,
//  * frames from independent streams share packets (no transport-level
//    head-of-line blocking between objects),
//  * loss detection from ACK ranges covering up to 256 ranges,
//  * probe timeouts instead of dup-ack machinery.
// Congestion control and pacing reuse the same cc:: modules as TCP,
// which is precisely the "similarly parameterized" setup of Table 1.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <utility>

#include "cc/bandwidth_sampler.hpp"
#include "cc/congestion_controller.hpp"
#include "cc/pacer.hpp"
#include "cc/rtt_estimator.hpp"
#include "net/transport_stats.hpp"
#include "quic/config.hpp"
#include "quic/packet.hpp"
#include "sim/simulator.hpp"
#include "util/flat_map.hpp"

namespace qperc::quic {

class QuicSendSide {
 public:
  /// Emits a data packet; the connection piggybacks ACK state and routes it.
  /// SmallFunction, not std::function: the capture is a connection pointer,
  /// and the packet-emit path runs hundreds of times per trial.
  using EmitFn = SmallFunction<void(QuicPacket)>;

  QuicSendSide(sim::Simulator& simulator, const QuicConfig& config, EmitFn emit);
  QuicSendSide(const QuicSendSide&) = delete;
  QuicSendSide& operator=(const QuicSendSide&) = delete;

  void on_established(SimDuration handshake_rtt);

  /// Appends bytes to a stream (creating it as needed). Lower `priority`
  /// values are served first; streams of equal priority share round-robin.
  void write_stream(std::uint64_t stream_id, std::uint64_t bytes, bool fin,
                    std::uint8_t priority);

  /// Processes an ACK frame (ranges of received packet numbers). Follow it
  /// with on_window_updates for the same packet: only that call may arm
  /// the BLOCKED probe. The range walk stops at the first range below every
  /// packet number the frame can still act on (unacked, PTO-lost, or traced
  /// lost), so its cost follows what the frame changes, not the up to 256
  /// ranges it repeats.
  void on_ack_frame(const QuicPacket& packet);
  /// Processes MAX_DATA / MAX_STREAM_DATA credit from the peer.
  void on_window_updates(const QuicPacket& packet);

  /// Allocates a packet number for a pure control/ACK packet (not congestion
  /// controlled, not retransmittable).
  [[nodiscard]] QuicPacket make_control_packet();

  [[nodiscard]] const net::TransportStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const cc::RttEstimator& rtt() const noexcept { return rtt_; }
  [[nodiscard]] const cc::CongestionController& controller() const { return *cc_; }
  [[nodiscard]] std::uint64_t bytes_in_flight() const noexcept { return bytes_in_flight_; }

  /// Identifies this side in trace events (set by the owning connection).
  void set_trace_context(std::uint64_t flow, trace::Endpoint endpoint) noexcept {
    trace_flow_ = flow;
    trace_endpoint_ = endpoint;
  }

 private:
  struct SendStream {
    std::uint8_t priority = 1;
    std::uint64_t write_bytes = 0;   // total bytes the application wrote
    std::uint64_t next_offset = 0;   // first-transmission progress
    bool fin = false;
    bool fin_packetized = false;
    std::uint64_t peer_limit = 0;    // MAX_STREAM_DATA (set by the constructor)
    explicit SendStream(std::uint64_t limit) : peer_limit(limit) {}
  };

  /// Packet numbers declared lost, oldest first, as a flat arena array.
  /// Loss is only ever declared on the oldest unacked packets (packet and
  /// time thresholds both grow with age, and a PTO takes the oldest), so
  /// numbers arrive in increasing order and the log stays sorted. An ACK
  /// that covers an entry tombstones it (0 is never a packet number).
  class LostLog {
   public:
    void append(Arena& arena, std::uint64_t pn);
    [[nodiscard]] bool empty() const noexcept { return live_ == 0; }
    /// Oldest live entry. Requires a non-empty log.
    [[nodiscard]] std::uint64_t oldest() const noexcept { return pns_[front_]; }
    /// Initial merge_down cursor; entries at or past a cursor are passed.
    [[nodiscard]] std::uint32_t merge_start() const noexcept { return pns_.size(); }
    /// One step of a downward merge with an ACK frame's ranges: hands the
    /// live entries inside [first, last] to `on_match` in ascending order
    /// and tombstones them. Fed the frame's ranges newest-first, starting
    /// from merge_start(), the cursor only moves down, so a whole frame costs
    /// O(ranges + entries between its top and its floor).
    template <class OnMatch>
    void merge_down(std::uint32_t& cursor, std::uint64_t first, std::uint64_t last,
                    OnMatch on_match);

   private:
    ArenaVec<std::uint64_t> pns_;
    std::uint32_t front_ = 0;  // first live entry (== pns_.size() when empty)
    std::uint32_t live_ = 0;
  };

  struct UnackedPacket {
    SimTime sent_time{0};
    std::uint32_t payload_bytes = 0;  // counted against the window
    std::uint64_t stream_bytes = 0;
    /// View of the transmitted packet's frame list. The storage is arena-
    /// owned (immutable, trial lifetime), so the view stays valid across
    /// map erases and outlives the wire packet itself.
    const StreamFrame* frames = nullptr;
    std::uint32_t frame_count = 0;
  };

  /// A stream the scheduling scan could pick: unsent data, or an unsent FIN.
  /// Must match build_frames' has_data/has_fin tests exactly — the
  /// pending_streams_ counter gates the whole scan.
  [[nodiscard]] static bool stream_pending(const SendStream& stream) noexcept {
    return stream.next_offset < stream.write_bytes ||
           (stream.fin && !stream.fin_packetized);
  }

  /// `may_probe` is false only inside on_ack_frame: the packet's window
  /// updates are applied right after, and arming the BLOCKED probe before
  /// them would schedule it for a stall that those updates end.
  void maybe_send(bool may_probe = true);
  /// Assembles the next data packet; empty frames vector == nothing to send.
  [[nodiscard]] ArenaVec<StreamFrame> build_frames(std::uint32_t budget,
                                                   bool& is_retransmission);
  void transmit(ArenaVec<StreamFrame> frames, bool is_retransmission);
  /// Declares lost the unacked packets below largest_acked_ that pass the
  /// packet or time threshold. Both thresholds grow with age, so the lost
  /// packets are always a prefix of unacked_ and at most two packets below
  /// largest_acked_ survive a call: the scan is O(newly lost).
  void detect_losses(SimTime now);
  void requeue_lost(UnackedPacket& packet);
  void enter_recovery_if_needed(std::uint64_t lost_pn);
  void rearm_timer();
  /// Records whether the last scheduling pass found data it may not send
  /// for lack of flow-control credit.
  void note_flow_control(bool blocked, std::uint64_t stream);
  /// Flow-control blocked with nothing retransmittable: no ACK will come to
  /// deliver the credit, so arm the PTO to send a BLOCKED probe.
  void arm_blocked_probe();
  void on_timer();
  [[nodiscard]] SimDuration probe_timeout() const;

  sim::Simulator& simulator_;
  QuicConfig config_;
  EmitFn emit_;

  std::unique_ptr<cc::CongestionController> cc_;
  /// Cached cc_->uses_delivery_rate(): selects the sampler ack entry point
  /// without a virtual call per acked packet.
  bool cc_wants_rate_ = false;
  cc::Pacer pacer_;
  cc::RttEstimator rtt_;
  cc::BandwidthSampler sampler_;
  net::TransportStats stats_;

  bool established_ = false;
  // Hot-path containers draw their storage from the trial arena and lay the
  // entries out flat in key order: identical iteration order to std::map,
  // zero heap traffic, and no rb-tree pointer chasing per entry (see
  // docs/PERFORMANCE.md and util/flat_map.hpp).
  FlatMap<std::uint64_t, SendStream> streams_;
  /// Streams with unsent data or an un-packetized FIN. Maintained at the two
  /// mutation sites (write_stream, build_frames' serve step) so build_frames
  /// can skip its scheduling scan when there is provably nothing to send —
  /// the common steady state between ACKs.
  std::size_t pending_streams_ = 0;
  std::uint64_t last_served_stream_ = 0;
  std::deque<StreamFrame, ArenaAllocator<StreamFrame>> retransmit_queue_;

  std::uint64_t next_packet_number_ = 1;
  std::uint64_t largest_acked_ = 0;
  /// Sent, ack-eliciting, neither acked nor declared lost. Entries retire
  /// from the front (acks, losses), so begin() is the oldest unacked packet.
  FlatMap<std::uint64_t, UnackedPacket> unacked_;
  std::uint64_t bytes_in_flight_ = 0;

  std::uint64_t peer_connection_limit_ = 0;  // set by the constructor
  std::uint64_t connection_bytes_sent_ = 0;

  std::uint64_t recovery_end_pn_ = 0;
  std::uint64_t round_end_pn_ = 0;

  sim::Timer loss_or_pto_timer_;
  bool timer_is_loss_ = false;
  SimTime loss_deadline_{0};
  std::uint32_t pto_backoff_ = 0;

  /// Bytes declared lost since the congestion controller last consumed an
  /// AckSample (feeds BBR's long-term bandwidth estimator).
  std::uint64_t bytes_lost_since_ack_ = 0;
  /// Packet numbers the PTO path declared lost. An ACK range later covering
  /// one proves the probe timeout spurious (the original packet arrived, the
  /// link was merely slow): reset the backoff and undo the controller's
  /// timeout reaction instead of escalating into a retransmission storm.
  /// Always-on (unlike traced_lost_) because it changes behaviour.
  LostLog pto_lost_;

  sim::Timer send_timer_;

  /// Inside a flow-control stall: the last scheduling pass had data waiting
  /// on peer credit.
  bool fc_blocked_ = false;
  SimTime fc_blocked_since_{0};

  // Trace-only state (touched exclusively when a sink is attached, so
  // untraced runs are bit-identical).
  std::uint64_t trace_flow_ = 0;
  trace::Endpoint trace_endpoint_ = trace::Endpoint::kNone;
  LostLog traced_lost_;  // declared lost; ack later = spurious
};

}  // namespace qperc::quic
