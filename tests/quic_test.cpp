// QUIC stack tests: 1-RTT handshake, stream independence, ACK ranges,
// reliability under loss, flow control.
#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "net/impairments.hpp"
#include "tests/transport_test_util.hpp"
#include "util/rng.hpp"

namespace qperc::quic {
namespace {

using testutil::QuicHarness;

QuicConfig default_config() { return QuicConfig{}; }

TEST(QuicHandshake, TakesOneRttBeforeData) {
  QuicHarness harness(net::dsl_profile(), default_config(), 10'000);
  ASSERT_TRUE(harness.run(1));
  // One 24 ms round trip (plus serialization of the padded CHLO/REJ).
  EXPECT_GE(harness.established_at, SimTime(milliseconds(24)));
  EXPECT_LE(harness.established_at, SimTime(milliseconds(36)));
}

TEST(QuicHandshake, ZeroRttEstablishesImmediately) {
  QuicConfig config = default_config();
  config.zero_rtt = true;
  QuicHarness harness(net::dsl_profile(), config, 10'000);
  ASSERT_TRUE(harness.run(1));
  EXPECT_EQ(harness.established_at, SimTime{0});
}

TEST(QuicHandshake, OneRttFasterThanTcpOnCleanNetwork) {
  QuicHarness quic(net::lte_profile(), default_config(), 20'000);
  ASSERT_TRUE(quic.run(1));
  testutil::TcpHarness tcp(net::lte_profile(), tcp::TcpConfig{}, 20'000);
  ASSERT_TRUE(tcp.run());
  // LTE min RTT 74 ms: QUIC saves about one round trip.
  const SimDuration saved = tcp.established_at - quic.established_at;
  EXPECT_GT(saved, milliseconds(60));
  EXPECT_LT(saved, milliseconds(110));
}

TEST(QuicHandshake, SurvivesChloLoss) {
  int recovered = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    QuicHarness harness(net::mss_profile(), default_config(), 5'000, seed);
    ASSERT_TRUE(harness.run(1)) << seed;
    recovered += harness.connection->stats().handshake_retransmissions > 0 ? 1 : 0;
  }
  EXPECT_GT(recovered, 0);
}

TEST(QuicTransfer, DeliversExactBytesLossless) {
  QuicHarness harness(net::dsl_profile(), default_config(), 250'000);
  ASSERT_TRUE(harness.run(1));
  EXPECT_EQ(harness.bytes_delivered, 250'000u);
}

TEST(QuicTransfer, DeliversUnderHeavyLoss) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    QuicHarness harness(net::mss_profile(), default_config(), 200'000, seed);
    EXPECT_TRUE(harness.run(1)) << "seed " << seed;
    EXPECT_EQ(harness.bytes_delivered, 200'000u) << "seed " << seed;
  }
}

TEST(QuicTransfer, MultipleStreamsAllComplete) {
  QuicHarness harness(net::lte_profile(), default_config(), 30'000);
  ASSERT_TRUE(harness.run(8));
  EXPECT_EQ(harness.bytes_delivered, 8u * 30'000);
}

TEST(QuicTransfer, ThroughputApproachesLinkRate) {
  QuicHarness harness(net::dsl_profile(), default_config(), 2'000'000);
  ASSERT_TRUE(harness.run(1));
  const double goodput_mbps =
      2'000'000 * 8.0 / to_seconds(harness.simulator.now()) / 1e6;
  EXPECT_GT(goodput_mbps, 15.0);
}

TEST(QuicStreams, ProgressIndependentlyUnderLoss) {
  // With many parallel streams on a lossy link, some streams must complete
  // while others are still blocked on retransmissions — the defining
  // difference from TCP's single byte stream. We verify that stream
  // completions are spread over time rather than all arriving at the end.
  QuicHarness harness(net::da2gc_profile(), default_config(), 25'000, 3);
  harness.connection->connect();
  std::vector<SimTime> completions;
  // Re-wire the completion hook to record times.
  // (QuicHarness counts completions; we approximate spread via run loop.)
  for (std::uint32_t i = 0; i < 6; ++i) {
    harness.connection->client_write_stream(5 + 2 * i, 300, true, 1);
  }
  std::uint64_t last_count = 0;
  std::vector<SimTime> first_last;
  const SimTime end = harness.simulator.now() + seconds(300);
  while (harness.streams_completed < 6 && harness.simulator.now() < end) {
    harness.simulator.run_until(harness.simulator.now() + milliseconds(20));
    if (harness.streams_completed != last_count) {
      last_count = harness.streams_completed;
      first_last.push_back(harness.simulator.now());
    }
  }
  ASSERT_EQ(harness.streams_completed, 6u);
  // First stream completion well before the last.
  EXPECT_GT(first_last.back() - first_last.front(), milliseconds(100));
}

TEST(QuicAckRanges, CanExceedTcpSackLimit) {
  sim::Simulator simulator;
  QuicConfig config;
  int ack_requests = 0;
  QuicReceiveSide receiver(simulator, config, [&] { ++ack_requests; },
                           [](std::uint64_t, std::uint64_t, bool) {});
  // Receive every other packet number: 20 disjoint ranges.
  QuicPacket packet;
  packet.ack_eliciting = true;
  for (std::uint64_t pn = 2; pn <= 40; pn += 2) {
    packet.packet_number = pn;
    receiver.on_packet(packet);
  }
  QuicPacket ack;
  receiver.fill_ack(ack);
  EXPECT_TRUE(ack.has_ack);
  EXPECT_EQ(ack.ack_ranges.count, 20u);
  EXPECT_GT(ack.ack_ranges.count, tcp::kMaxSackBlocks);
  // Newest first.
  EXPECT_EQ(ack.ack_ranges.head->first, 40u);
}

TEST(QuicAckRanges, CapsAtConfiguredMaximum) {
  sim::Simulator simulator;
  QuicConfig config;
  config.max_ack_ranges = 8;
  QuicReceiveSide receiver(simulator, config, [] {},
                           [](std::uint64_t, std::uint64_t, bool) {});
  QuicPacket packet;
  packet.ack_eliciting = true;
  for (std::uint64_t pn = 2; pn <= 60; pn += 2) {
    packet.packet_number = pn;
    receiver.on_packet(packet);
  }
  QuicPacket ack;
  receiver.fill_ack(ack);
  EXPECT_EQ(ack.ack_ranges.count, 8u);
}

using Ranges = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

Ranges frame_ranges(const AckRanges& frame) {
  Ranges out;
  for (const AckRangeNode& range : frame) out.emplace_back(range.first, range.last);
  return out;
}

// The receiver's range list against a std::map reference model, over seeded
// streams of in-order runs, gaps, duplicates and reordered packets. Every
// frame must carry the model's newest min(n, max_ack_ranges) ranges, and a
// frame taken earlier must keep reading its own ranges after later inserts.
TEST(QuicAckRanges, MatchRangeMapModelUnderReordering) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    sim::Simulator simulator;
    QuicConfig config;
    config.max_ack_ranges = seed % 2 == 0 ? 8 : 256;
    QuicReceiveSide receiver(simulator, config, [] {},
                             [](std::uint64_t, std::uint64_t, bool) {});
    Rng rng(seed);
    std::map<std::uint64_t, std::uint64_t> model;  // first -> last
    std::vector<std::uint64_t> holes;
    std::vector<std::uint64_t> received;
    std::vector<std::pair<AckRanges, Ranges>> snapshots;
    int fills = 0, joins_below_only = 0, splits = 0, duplicates = 0;
    std::uint64_t next = 1;
    for (int step = 0; step < 3000; ++step) {
      const double roll = rng.uniform();
      std::uint64_t pn = 0;
      if (roll < 0.1 && !received.empty()) {
        pn = received[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(received.size()) - 1))];
      } else if (roll < 0.35 && !holes.empty()) {
        const auto at = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(holes.size()) - 1));
        pn = holes[at];
        holes.erase(holes.begin() + static_cast<std::ptrdiff_t>(at));
      } else {
        if (roll < 0.5) {  // open a gap of 1-4 packet numbers
          for (std::int64_t skip = rng.uniform_int(1, 4); skip > 0; --skip) {
            holes.push_back(next++);
          }
        }
        pn = next++;
      }

      // Update the model and classify the packet.
      auto it = model.upper_bound(pn);
      const bool duplicate = it != model.begin() && std::prev(it)->second >= pn;
      if (duplicate) {
        ++duplicates;
      } else {
        const bool below = it != model.begin() && std::prev(it)->second + 1 == pn;
        const bool above = it != model.end() && it->first == pn + 1;
        if (it != model.end()) {
          fills += below && above;
          joins_below_only += below && !above;
          splits += !below && !above;
        }
        std::uint64_t first = pn;
        std::uint64_t last = pn;
        if (above) {
          last = it->second;
          model.erase(it);
        }
        if (below) {
          first = std::prev(model.upper_bound(pn))->first;
        }
        model[first] = last;
        received.push_back(pn);
      }

      QuicPacket packet;
      packet.packet_number = pn;
      receiver.on_packet(packet);
      QuicPacket ack;
      receiver.fill_ack(ack);
      Ranges expected;
      for (auto r = model.rbegin(); r != model.rend() && expected.size() < config.max_ack_ranges;
           ++r) {
        expected.emplace_back(r->first, r->second);
      }
      ASSERT_EQ(ack.ack_ranges.head->depth, model.size()) << "seed " << seed << " pn " << pn;
      ASSERT_EQ(frame_ranges(ack.ack_ranges), expected) << "seed " << seed << " pn " << pn;
      if (step % 50 == 0) snapshots.emplace_back(ack.ack_ranges, expected);
    }
    for (const auto& [frame, ranges] : snapshots) {
      EXPECT_EQ(frame_ranges(frame), ranges) << "seed " << seed;
    }
    EXPECT_GT(fills, 0) << "seed " << seed;
    EXPECT_GT(joins_below_only, 0) << "seed " << seed;
    EXPECT_GT(splits, 0) << "seed " << seed;
    EXPECT_GT(duplicates, 0) << "seed " << seed;
  }
}

// Building an ACK frame copies nothing, and an in-order packet (extending the
// newest range or opening one above it) adds exactly one list node.
TEST(QuicAckRanges, FillAckCopiesNothingAndInOrderPacketsAddOneNode) {
  sim::Simulator simulator;
  QuicConfig config;
  QuicReceiveSide receiver(simulator, config, [] {},
                           [](std::uint64_t, std::uint64_t, bool) {});
  QuicPacket packet;
  packet.packet_number = 1;
  receiver.on_packet(packet);
  for (std::uint64_t pn = 2; pn <= 400; pn += pn % 3 == 0 ? 2 : 1) {
    packet.packet_number = pn;
    const std::size_t before = simulator.arena().bytes_used();
    receiver.on_packet(packet);
    EXPECT_EQ(simulator.arena().bytes_used() - before, sizeof(AckRangeNode)) << "pn " << pn;
    QuicPacket ack;
    const std::size_t before_ack = simulator.arena().bytes_used();
    receiver.fill_ack(ack);
    EXPECT_EQ(simulator.arena().bytes_used(), before_ack) << "pn " << pn;
    EXPECT_TRUE(ack.has_ack);
  }
}

TEST(QuicReceiveSide, ReassemblesStreamsIndependently) {
  sim::Simulator simulator;
  QuicConfig config;
  struct Progress {
    std::uint64_t bytes = 0;
    bool fin = false;
  };
  std::map<std::uint64_t, Progress> progress;
  QuicReceiveSide receiver(simulator, config, [] {},
                           [&](std::uint64_t stream, std::uint64_t bytes, bool fin) {
                             progress[stream] = {bytes, fin};
                           });
  QuicPacket p1;
  p1.packet_number = 1;
  p1.ack_eliciting = true;
  p1.frames.push_back(simulator.arena(), StreamFrame{5, 0, 1000, false});
  p1.frames.push_back(simulator.arena(), StreamFrame{7, 500, 500, true});  // stream 7 has a hole
  receiver.on_packet(p1);
  EXPECT_EQ(progress[5].bytes, 1000u);
  EXPECT_EQ(progress.count(7), 0u);  // no contiguous progress yet

  QuicPacket p2;
  p2.packet_number = 2;
  p2.ack_eliciting = true;
  p2.frames.push_back(simulator.arena(), StreamFrame{7, 0, 500, false});  // fill stream 7's hole
  receiver.on_packet(p2);
  EXPECT_EQ(progress[7].bytes, 1000u);
  EXPECT_TRUE(progress[7].fin);
  EXPECT_FALSE(progress[5].fin);
}

TEST(QuicReceiveSide, DuplicatePacketsIgnored) {
  sim::Simulator simulator;
  QuicConfig config;
  std::uint64_t delivered = 0;
  QuicReceiveSide receiver(simulator, config, [] {},
                           [&](std::uint64_t, std::uint64_t bytes, bool) {
                             delivered = bytes;
                           });
  QuicPacket packet;
  packet.packet_number = 1;
  packet.ack_eliciting = true;
  packet.frames.push_back(simulator.arena(), StreamFrame{5, 0, 1000, false});
  receiver.on_packet(packet);
  receiver.on_packet(packet);  // duplicate
  EXPECT_EQ(delivered, 1000u);
  EXPECT_EQ(receiver.stream_delivered(5), 1000u);
}

TEST(QuicFlowControl, WindowUpdatesFlowBack) {
  // Transfer larger than the stream flow-control window: completion proves
  // MAX_STREAM_DATA credit kept flowing.
  QuicConfig config = default_config();
  config.stream_flow_window_bytes = 64 * 1024;
  config.connection_flow_window_bytes = 96 * 1024;
  QuicHarness harness(net::dsl_profile(), config, 500'000);
  ASSERT_TRUE(harness.run(1));
  EXPECT_EQ(harness.bytes_delivered, 500'000u);
}

TEST(QuicStats, RetransmissionsUnderLoss) {
  QuicHarness harness(net::da2gc_profile(), default_config(), 150'000, 5);
  ASSERT_TRUE(harness.run(1, seconds(300)));
  EXPECT_GT(harness.connection->stats().retransmissions, 0u);
}

// --- Impairment-layer regressions (bugs flushed out by `qperc torture`) ---

TEST(QuicImpairment, DuplicateStormDeliversStreamBytesExactlyOnce) {
  net::NetworkProfile profile = net::dsl_profile();
  profile.impairments.duplicate_rate = 0.4;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    QuicHarness harness(profile, default_config(), 120'000, seed);
    ASSERT_TRUE(harness.run(2)) << "seed " << seed;
    // Byte-exact on both streams: the receive side's duplicate tracking
    // (receive_side.cpp) must discard every link-level copy.
    EXPECT_EQ(harness.bytes_delivered, 240'000u) << "seed " << seed;
    EXPECT_GT(harness.network->downlink_stats().duplicates, 0u) << "seed " << seed;
  }
}

// The paper's ACK-range-capacity mechanism (§4.3): with max_ack_ranges
// pinned far below the holes heavy reordering opens, ACK frames can never
// describe the full receive state. The send side must still retire every
// in-flight packet — the capped ACK must not strand packets in flight.
TEST(QuicImpairment, ReorderingBeyondAckRangeCapRetiresAllPackets) {
  QuicConfig config = default_config();
  config.max_ack_ranges = 2;
  net::NetworkProfile profile = net::dsl_profile();
  profile.impairments.reorder_rate = 0.4;
  profile.impairments.reorder_delay_min = milliseconds(2);
  profile.impairments.reorder_delay_max = milliseconds(60);
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    QuicHarness harness(profile, config, 400'000, seed);
    ASSERT_TRUE(harness.run(1, seconds(240))) << "seed " << seed;
    EXPECT_EQ(harness.bytes_delivered, 400'000u) << "seed " << seed;
    EXPECT_GT(harness.network->downlink_stats().reordered, 0u) << "seed " << seed;
  }
}

TEST(QuicImpairment, SurvivesGilbertElliottBurstsAndFlaps) {
  net::NetworkProfile profile = net::lte_profile();
  profile.impairments.gilbert_elliott = net::GilbertElliott{
      .enter_bad = 0.02, .exit_bad = 0.3, .loss_good = 0.0, .loss_bad = 0.5};
  profile.impairments.outage_start = SimTime{milliseconds(500)};
  profile.impairments.outage_duration = milliseconds(200);
  profile.impairments.outage_interval = seconds(2);
  QuicHarness harness(profile, default_config(), 120'000, 3);
  ASSERT_TRUE(harness.run(1, seconds(240)));
  EXPECT_EQ(harness.bytes_delivered, 120'000u);
  EXPECT_GT(harness.connection->stats().retransmissions, 0u);
}

}  // namespace
}  // namespace qperc::quic
