// White-box tests of the QUIC sender's loss detection and probe timers.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "quic/receive_side.hpp"
#include "quic/send_side.hpp"
#include "sim/simulator.hpp"
#include "trace/memory_sink.hpp"
#include "util/check.hpp"

namespace qperc::quic {
namespace {

/// Harness around a bare QuicSendSide capturing emitted packets.
struct SenderHarness {
  sim::Simulator simulator;
  std::vector<QuicPacket> sent;
  QuicSendSide sender;

  explicit SenderHarness(QuicConfig config = QuicConfig{})
      : sender(simulator, config, [this](QuicPacket packet) {
          sent.push_back(std::move(packet));
        }) {}

  /// Delivers an ACK covering the given packet-number ranges.
  void ack(std::initializer_list<std::pair<std::uint64_t, std::uint64_t>> ranges) {
    QuicPacket ack_packet;
    ack_packet.has_ack = true;
    for (const auto& range : ranges) {
      ack_packet.ack_ranges.emplace_back(simulator.arena(), range.first, range.second);
    }
    sender.on_ack_frame(ack_packet);
  }

  /// Counts total stream bytes across sent packets [from, to).
  std::size_t packets_sent() const { return sent.size(); }
};

TEST(QuicSendSide, SendsAfterEstablishment) {
  SenderHarness harness;
  harness.sender.write_stream(5, 10'000, true, 1);
  harness.simulator.run_until(SimTime(milliseconds(10)));
  EXPECT_EQ(harness.packets_sent(), 0u);  // not established yet
  harness.sender.on_established(milliseconds(50));
  harness.simulator.run_until(SimTime(milliseconds(20)));
  EXPECT_GT(harness.packets_sent(), 0u);
}

TEST(QuicSendSide, PacketThresholdLossTriggersRetransmission) {
  SenderHarness harness;
  harness.sender.on_established(milliseconds(50));
  harness.sender.write_stream(5, 20'000, true, 1);
  harness.simulator.run_until(SimTime(milliseconds(100)));
  const std::size_t initial = harness.packets_sent();
  ASSERT_GE(initial, 5u);

  // ACK packets 4..N, skipping 1..3: pn 1..3 are >=3 behind the largest.
  const std::uint64_t largest = harness.sent[initial - 1].packet_number;
  harness.ack({{4, largest}});
  harness.simulator.run_until(harness.simulator.now() + milliseconds(50));
  EXPECT_GT(harness.packets_sent(), initial);  // lost frames re-sent
  EXPECT_GT(harness.sender.stats().retransmissions, 0u);
  EXPECT_EQ(harness.sender.stats().congestion_events, 1u);
}

TEST(QuicSendSide, ReorderingBelowThresholdIsNotLoss) {
  SenderHarness harness;
  harness.sender.on_established(milliseconds(50));
  harness.sender.write_stream(5, 8'000, true, 1);
  harness.simulator.run_until(SimTime(milliseconds(100)));
  const std::size_t initial = harness.packets_sent();
  ASSERT_GE(initial, 3u);
  // ACK only the second packet: gap of one — below the packet threshold,
  // and the time threshold has not elapsed yet.
  harness.ack({{2, 2}});
  EXPECT_EQ(harness.sender.stats().retransmissions, 0u);
}

TEST(QuicSendSide, ProbeTimeoutFiresWithoutAcks) {
  SenderHarness harness;
  harness.sender.on_established(milliseconds(50));
  harness.sender.write_stream(5, 3'000, true, 1);
  harness.simulator.run_until(SimTime(milliseconds(80)));
  const std::size_t initial = harness.packets_sent();
  ASSERT_GT(initial, 0u);
  // No ACK ever arrives: the PTO must fire and probe.
  harness.simulator.run_until(SimTime(seconds(2)));
  EXPECT_GT(harness.sender.stats().tail_probes, 0u);
  EXPECT_GT(harness.packets_sent(), initial);
}

TEST(QuicSendSide, PtoBacksOffExponentially) {
  SenderHarness harness;
  harness.sender.on_established(milliseconds(50));
  harness.sender.write_stream(5, 1'000, true, 1);
  harness.simulator.run_until(SimTime(seconds(10)));
  // Repeated unanswered probes escalate into timeout statistics.
  EXPECT_GE(harness.sender.stats().tail_probes, 3u);
  EXPECT_GE(harness.sender.stats().timeouts, 1u);
  // With exponential backoff, probe count grows logarithmically: far fewer
  // than the linear-timer worst case.
  EXPECT_LE(harness.sender.stats().tail_probes, 12u);
}

TEST(QuicSendSide, LateAckForPtoMarkedPacketsIsSpurious) {
  SenderHarness harness;
  harness.sender.on_established(milliseconds(50));
  harness.sender.write_stream(5, 20'000, true, 1);
  harness.simulator.run_until(SimTime(milliseconds(100)));
  const std::size_t initial = harness.packets_sent();
  ASSERT_GE(initial, 5u);
  // No ACKs arrive: the probe timeout escalates and starts declaring the
  // oldest packets of the flight lost.
  harness.simulator.run_until(SimTime(seconds(3)));
  ASSERT_GE(harness.sender.stats().timeouts, 1u);
  EXPECT_EQ(harness.sender.stats().spurious_timeouts, 0u);
  // The original flight's ACK finally lands (it was delayed, never dropped):
  // that proves the timeouts spurious — the backoff resets and the undo is
  // counted, instead of the timeout storm re-sending a flight the peer
  // already has.
  const std::uint64_t largest = harness.sent[initial - 1].packet_number;
  harness.ack({{1, largest}});
  EXPECT_GE(harness.sender.stats().spurious_timeouts, 1u);
}

TEST(QuicSendSide, AckOfRetransmittedDataIsNotSpurious) {
  SenderHarness harness;
  harness.sender.on_established(milliseconds(50));
  harness.sender.write_stream(5, 20'000, true, 1);
  harness.simulator.run_until(SimTime(milliseconds(100)));
  const std::size_t initial = harness.packets_sent();
  harness.simulator.run_until(SimTime(seconds(3)));
  ASSERT_GT(harness.packets_sent(), initial);  // PTO probes went out
  // ACK only packets sent *after* the timeouts (the retransmissions): the
  // originals really were lost, so no spurious undo may fire.
  const std::uint64_t first_retx = harness.sent[initial].packet_number;
  const std::uint64_t largest = harness.sent.back().packet_number;
  harness.ack({{first_retx, largest}});
  EXPECT_EQ(harness.sender.stats().spurious_timeouts, 0u);
}

// The ACK-range walk stops at the first range below every packet number an
// ACK can still act on. A PTO-declared loss is one of those even when it
// sits below every unacked packet.
TEST(QuicSendSide, LateAckBelowEveryUnackedPacketStillProvesPtoSpurious) {
  SenderHarness harness;
  harness.sender.on_established(milliseconds(50));
  harness.sender.write_stream(5, 20'000, true, 1);
  harness.simulator.run_until(SimTime(milliseconds(100)));
  const std::size_t initial = harness.packets_sent();
  ASSERT_GE(initial, 5u);
  // Unanswered probe timeouts declare the oldest packets, pn 1 first, lost.
  harness.simulator.run_until(SimTime(seconds(3)));
  ASSERT_GE(harness.sender.stats().timeouts, 1u);
  const std::uint64_t newest = harness.sent[initial - 1].packet_number;
  // Acking only the newest original packet settles the rest of the flight
  // (lost by time), so everything still unacked is a retransmission above it.
  harness.ack({{newest, newest}});
  ASSERT_EQ(harness.sender.stats().spurious_timeouts, 0u);
  // The late ACK's only range naming a PTO loss lies below all of them.
  harness.ack({{newest, newest}, {1, 1}});
  EXPECT_EQ(harness.sender.stats().spurious_timeouts, 1u);
}

// Traced runs walk further: a range may also prove a packet-threshold or
// time-threshold loss spurious, below every unacked and PTO-lost packet.
TEST(QuicSendSide, TracedWalkReportsSpuriousLossesBelowEveryUnackedPacket) {
  SenderHarness harness;
  trace::MemorySink sink;
  harness.simulator.set_trace(&sink);
  harness.sender.on_established(milliseconds(50));
  harness.sender.write_stream(5, 20'000, true, 1);
  harness.simulator.run_until(SimTime(milliseconds(100)));
  const std::size_t initial = harness.packets_sent();
  ASSERT_GE(initial, 5u);
  harness.simulator.run_until(SimTime(seconds(3)));
  // The PTO declares the oldest unacked packet lost each time: pn 1..k.
  std::uint64_t last_pto_lost = 0;
  for (const auto& event : sink.of_type(trace::EventType::kPacketLost)) {
    if (event.value == 1) last_pto_lost = std::max(last_pto_lost, event.id);
  }
  const std::uint64_t newest = harness.sent[initial - 1].packet_number;
  ASSERT_GE(last_pto_lost, 1u);
  ASSERT_LT(last_pto_lost + 1, newest);

  harness.ack({{newest, newest}});  // pn k+1 .. newest-1 lost by time
  harness.ack({{newest, newest}, {1, last_pto_lost}});  // empties the PTO set
  EXPECT_EQ(harness.sender.stats().spurious_timeouts, 1u);
  sink.clear();
  // pn k+1 sits below every unacked packet and the PTO set is empty: only the
  // trace set keeps the walk going down to it.
  harness.ack({{newest, newest}, {last_pto_lost + 1, last_pto_lost + 1}});
  const auto spurious = sink.of_type(trace::EventType::kSpuriousLoss);
  ASSERT_EQ(spurious.size(), 1u);
  EXPECT_EQ(spurious[0].id, last_pto_lost + 1);
  harness.simulator.set_trace(nullptr);
}

TEST(QuicSendSide, StaleRangesBelowTheFloorChangeNothing) {
  SenderHarness harness;
  harness.sender.on_established(milliseconds(50));
  // Burn packet numbers 1..600 on control packets, then put data in flight:
  // every unacked packet number is above 600.
  for (int i = 0; i < 600; ++i) (void)harness.sender.make_control_packet();
  harness.sender.write_stream(5, 20'000, true, 1);
  harness.simulator.run_until(SimTime(milliseconds(20)));
  ASSERT_GT(harness.packets_sent(), 0u);
  ASSERT_GT(harness.sent.front().packet_number, 600u);
  const net::TransportStats stats = harness.sender.stats();
  const std::uint64_t in_flight = harness.sender.bytes_in_flight();
  const std::size_t sent = harness.packets_sent();

  // 256 one-packet ranges, newest first, all below the oldest unacked packet.
  QuicPacket stale;
  stale.has_ack = true;
  for (std::uint64_t i = 0; i < 256; ++i) {
    const std::uint64_t pn = 511 - 2 * i;
    stale.ack_ranges.emplace_back(harness.simulator.arena(), pn, pn);
  }
  ASSERT_EQ(stale.ack_ranges.size(), 256u);
  harness.sender.on_ack_frame(stale);
  EXPECT_EQ(harness.sender.stats(), stats);
  EXPECT_EQ(harness.sender.bytes_in_flight(), in_flight);
  EXPECT_EQ(harness.packets_sent(), sent);
}

#if QPERC_INVARIANTS_ENABLED
int g_range_violations = 0;
std::string g_range_message;
#endif

TEST(QuicSendSide, InvariantsCheckRangesPastTheWalkFloor) {
#if QPERC_INVARIANTS_ENABLED
  const auto previous = check::set_violation_handler(
      [](const char*, int, const char*, const std::string& message) {
        ++g_range_violations;
        g_range_message = message;
      });
  SenderHarness harness;
  harness.sender.on_established(milliseconds(50));
  for (int i = 0; i < 20; ++i) (void)harness.sender.make_control_packet();
  harness.sender.write_stream(5, 20'000, true, 1);
  harness.simulator.run_until(SimTime(milliseconds(20)));
  const std::uint64_t newest = harness.sent.back().packet_number;
  // The walk stops at [5, 5] (below every unacked packet); the overlapping
  // range after it must still be reported.
  harness.ack({{newest, newest}, {5, 5}, {4, 6}});
  check::set_violation_handler(previous);
  EXPECT_EQ(g_range_violations, 1);
  EXPECT_NE(g_range_message.find("out of order or overlapping"), std::string::npos);
#else
  GTEST_SKIP() << "QPERC_DCHECK is compiled out of this build";
#endif
}

TEST(QuicSendSide, OneCongestionEventPerLossEpisode) {
  SenderHarness harness;
  harness.sender.on_established(milliseconds(50));
  harness.sender.write_stream(5, 60'000, true, 1);
  harness.simulator.run_until(SimTime(milliseconds(200)));
  const std::size_t initial = harness.packets_sent();
  ASSERT_GE(initial, 10u);
  const std::uint64_t largest = harness.sent[initial - 1].packet_number;
  // Two separate ACKs each revealing losses from the same flight.
  harness.ack({{6, 8}});
  harness.ack({{10, largest}});
  EXPECT_EQ(harness.sender.stats().congestion_events, 1u);
}

TEST(QuicSendSide, StreamPriorityOrdersFrames) {
  SenderHarness harness;
  harness.sender.on_established(milliseconds(50));
  // Low-priority stream written first, high-priority second.
  harness.sender.write_stream(5, 50'000, true, /*priority=*/3);
  harness.sender.write_stream(7, 50'000, true, /*priority=*/0);
  harness.simulator.run_until(SimTime(milliseconds(15)));
  ASSERT_GE(harness.packets_sent(), 15u);
  // The pacer's 10-packet initial burst leaves during the first
  // write_stream call (stream 5 only); once stream 7 exists, its higher
  // priority must dominate the paced packets.
  std::uint64_t stream7_bytes = 0;
  std::uint64_t stream5_bytes = 0;
  for (std::size_t i = 10; i < harness.packets_sent(); ++i) {
    for (const auto& frame : harness.sent[i].frames) {
      (frame.stream_id == 7 ? stream7_bytes : stream5_bytes) += frame.length;
    }
  }
  EXPECT_GT(stream7_bytes, stream5_bytes);
}

TEST(QuicSendSide, ControlPacketsConsumePacketNumbers) {
  SenderHarness harness;
  const auto first = harness.sender.make_control_packet();
  const auto second = harness.sender.make_control_packet();
  EXPECT_EQ(second.packet_number, first.packet_number + 1);
  EXPECT_FALSE(first.ack_eliciting);
}

TEST(QuicSendSide, WindowUpdatesUnblockStreams) {
  QuicConfig config;
  config.stream_flow_window_bytes = 4'000;
  config.connection_flow_window_bytes = 1'000'000;
  SenderHarness harness(config);
  harness.sender.on_established(milliseconds(50));
  harness.sender.write_stream(5, 20'000, true, 1);
  harness.simulator.run_until(SimTime(milliseconds(50)));
  std::uint64_t sent_bytes = 0;
  for (const auto& packet : harness.sent) {
    for (const auto& frame : packet.frames) sent_bytes += frame.length;
  }
  EXPECT_LE(sent_bytes, 4'000u);  // blocked at the stream window

  QuicPacket update;
  update.window_updates.push_back(harness.simulator.arena(), WindowUpdate{5, 20'000});
  harness.sender.on_window_updates(update);
  harness.simulator.run_until(harness.simulator.now() + milliseconds(50));
  sent_bytes = 0;
  for (const auto& packet : harness.sent) {
    for (const auto& frame : packet.frames) sent_bytes += frame.length;
  }
  EXPECT_GT(sent_bytes, 4'000u);
}

/// A sender and a receiver joined by a lossless 10 ms one-way channel each
/// way, except that the first `window_updates_to_drop` receiver packets
/// carrying window updates are lost. Receiver packets are ACK-only (never
/// ack-eliciting, never retransmitted), exactly as a downloading client's.
struct LoopbackHarness {
  sim::Simulator simulator;
  QuicSendSide sender;
  QuicReceiveSide receiver;
  int window_updates_to_drop = 0;
  int window_updates_dropped = 0;

  explicit LoopbackHarness(const QuicConfig& config)
      : sender(simulator, config,
               [this](QuicPacket packet) {
                 const QuicPacket* wire = simulator.arena().create<QuicPacket>(std::move(packet));
                 simulator.schedule_in(milliseconds(10),
                                       [this, wire] { receiver.on_packet(*wire); });
               }),
        receiver(
            simulator, config, [this] { send_ack(); },
            [](std::uint64_t, std::uint64_t, bool) {}) {}

  void send_ack() {
    QuicPacket ack;
    receiver.fill_ack(ack);
    if (!ack.window_updates.empty() && window_updates_to_drop > 0) {
      --window_updates_to_drop;
      ++window_updates_dropped;
      return;
    }
    const QuicPacket* wire = simulator.arena().create<QuicPacket>(std::move(ack));
    simulator.schedule_in(milliseconds(10), [this, wire] {
      sender.on_ack_frame(*wire);
      sender.on_window_updates(*wire);
    });
  }
};

TEST(QuicFlowControl, LostWindowUpdateDoesNotDeadlockTheSender) {
  QuicConfig config;
  config.stream_flow_window_bytes = 4'000;
  LoopbackHarness harness(config);
  harness.window_updates_to_drop = 1;
  harness.sender.on_established(milliseconds(20));
  harness.sender.write_stream(5, 20'000, true, 1);
  harness.simulator.run_until(SimTime(seconds(10)));
  EXPECT_EQ(harness.window_updates_dropped, 1);
  // Every byte in flight was acknowledged before the sender hit the stream
  // limit, so only a BLOCKED probe can recover the lost credit.
  EXPECT_EQ(harness.receiver.stream_delivered(5), 20'000u);
  EXPECT_EQ(harness.sender.bytes_in_flight(), 0u);
}

}  // namespace
}  // namespace qperc::quic
