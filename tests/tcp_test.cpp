// TCP stack tests: handshake cost, reliability under loss, Table-1 knobs.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <vector>

#include "net/impairments.hpp"
#include "tcp/sender.hpp"
#include "tests/transport_test_util.hpp"
#include "trace/memory_sink.hpp"

namespace qperc::tcp {
namespace {

using testutil::TcpHarness;

TcpConfig stock_config() { return TcpConfig{}; }

TcpConfig tuned_config() {
  TcpConfig config;
  config.initial_window_segments = 32;
  config.pacing = true;
  config.tuned_buffers = true;
  config.slow_start_after_idle = false;
  return config;
}

TEST(TcpHandshake, TakesTwoRttsBeforeData) {
  TcpHarness harness(net::dsl_profile(), stock_config(), 10'000);
  ASSERT_TRUE(harness.run());
  // 2 round trips of 24 ms each (plus serialization of small packets).
  EXPECT_GE(harness.established_at, SimTime(milliseconds(48)));
  EXPECT_LE(harness.established_at, SimTime(milliseconds(60)));
}

TEST(TcpHandshake, SurvivesSynLoss) {
  // MSS has 6% random loss; across seeds some handshakes lose packets and
  // must recover via the 1-second handshake timer.
  int recovered_with_retx = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    TcpHarness harness(net::mss_profile(), stock_config(), 5'000, seed);
    ASSERT_TRUE(harness.run()) << seed;
    recovered_with_retx +=
        harness.connection->stats().handshake_retransmissions > 0 ? 1 : 0;
  }
  EXPECT_GT(recovered_with_retx, 0);
}

TEST(TcpTransfer, DeliversExactByteCountLossless) {
  TcpHarness harness(net::dsl_profile(), stock_config(), 250'000);
  ASSERT_TRUE(harness.run());
  EXPECT_EQ(harness.delivered, 250'000u);
}

TEST(TcpTransfer, DeliversUnderHeavyLoss) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    TcpHarness harness(net::mss_profile(), stock_config(), 200'000, seed);
    EXPECT_TRUE(harness.run()) << "seed " << seed;
    EXPECT_EQ(harness.delivered, 200'000u) << "seed " << seed;
    EXPECT_GT(harness.connection->stats().retransmissions, 0u) << "seed " << seed;
  }
}

TEST(TcpTransfer, RequestPathDeliversToo) {
  TcpHarness harness(net::lte_profile(), stock_config(), 1'000);
  harness.connection->client_write(5'000);
  ASSERT_TRUE(harness.run());
  // The response may finish before the request stream drains; keep running.
  const SimTime deadline = harness.simulator.now() + seconds(30);
  while (harness.request_delivered < 5'000 && harness.simulator.now() < deadline) {
    harness.simulator.run_until(harness.simulator.now() + milliseconds(50));
  }
  EXPECT_EQ(harness.request_delivered, 5'000u);
}

TEST(TcpTransfer, ThroughputApproachesLinkRateWhenTuned) {
  // 2 MB over DSL downlink (25 Mbps): ideal ~0.64 s + handshake.
  TcpHarness harness(net::dsl_profile(), tuned_config(), 2'000'000);
  ASSERT_TRUE(harness.run());
  const double seconds_taken = to_seconds(harness.simulator.now());
  const double goodput_mbps = 2'000'000 * 8.0 / seconds_taken / 1e6;
  EXPECT_GT(goodput_mbps, 15.0);  // at least 60% of the link
}

TEST(TcpTuning, StockReceiveWindowLimitsHighBdpTransfer) {
  // MSS: 1.89 Mbps x 760 ms BDP ~ 180 kB, but the stock window starts at
  // 64 kB — the tuned stack must finish a window-bound transfer faster.
  TcpHarness stock(net::mss_profile(), stock_config(), 600'000, 3);
  ASSERT_TRUE(stock.run(seconds(300)));
  TcpHarness tuned(net::mss_profile(), tuned_config(), 600'000, 3);
  ASSERT_TRUE(tuned.run(seconds(300)));
  EXPECT_LT(tuned.simulator.now(), stock.simulator.now());
}

TEST(TcpTuning, LargerInitialWindowSpeedsShortTransfers) {
  TcpConfig iw10 = stock_config();
  TcpConfig iw32 = stock_config();
  iw32.initial_window_segments = 32;
  // 40 kB needs ~28 segments: IW32 does it in one flight, IW10 needs three.
  TcpHarness slow(net::lte_profile(), iw10, 40'000);
  ASSERT_TRUE(slow.run());
  TcpHarness fast(net::lte_profile(), iw32, 40'000);
  ASSERT_TRUE(fast.run());
  EXPECT_LT(fast.finished_at, slow.finished_at);
  // At least one round trip (74 ms) of advantage on LTE.
  EXPECT_GT(slow.finished_at - fast.finished_at, milliseconds(60));
}

TEST(TcpTuning, PacingReducesInitialFlightQueueDrops) {
  // A single IW32 flight (45 kB) into DSL's 12 ms downlink queue (37.5 kB):
  // the unpaced burst overflows the queue, the paced flight lets it drain.
  TcpConfig burst = stock_config();
  burst.initial_window_segments = 32;
  burst.pacing = false;
  TcpConfig paced = burst;
  paced.pacing = true;
  TcpHarness a(net::dsl_profile(), burst, 45'000, 1);
  ASSERT_TRUE(a.run());
  TcpHarness b(net::dsl_profile(), paced, 45'000, 1);
  ASSERT_TRUE(b.run());
  EXPECT_GT(a.network->downlink_stats().drops_queue_full, 0u);
  EXPECT_LT(b.network->downlink_stats().drops_queue_full,
            a.network->downlink_stats().drops_queue_full);
}

TEST(TcpSackLimit, ReceiverAdvertisesAtMostThreeBlocks) {
  EXPECT_EQ(kMaxSackBlocks, 3u);
  sim::Simulator simulator;
  TcpConfig config;
  int acks = 0;
  TcpSegment last_ack;
  TcpReceiver receiver(simulator, config, 1'000'000, [&] { ++acks; },
                       [](std::uint64_t) {});
  // Five separated holes: 10 ranges would exist, only 3 may be advertised.
  for (std::uint64_t i = 0; i < 5; ++i) {
    receiver.on_data(10'000 * (i + 1), 1'000);
  }
  receiver.fill_ack(last_ack);
  EXPECT_EQ(last_ack.sacks().size(), 3u);
  EXPECT_EQ(last_ack.cumulative_ack, 0u);
  // Most recently received range first (RFC 2018).
  EXPECT_EQ(last_ack.sack_blocks[0].start, 50'000u);
}

TEST(TcpReceiver, ReassemblesOutOfOrderData) {
  sim::Simulator simulator;
  TcpConfig config;
  std::uint64_t delivered = 0;
  TcpReceiver receiver(simulator, config, 1'000'000, [] {},
                       [&](std::uint64_t t) { delivered = t; });
  receiver.on_data(1'000, 1'000);  // hole at [0, 1000)
  EXPECT_EQ(delivered, 0u);
  receiver.on_data(0, 1'000);  // fill the hole
  EXPECT_EQ(delivered, 2'000u);
}

TEST(TcpReceiver, DuplicateDataDoesNotRegress) {
  sim::Simulator simulator;
  TcpConfig config;
  std::uint64_t delivered = 0;
  TcpReceiver receiver(simulator, config, 1'000'000, [] {},
                       [&](std::uint64_t t) { delivered = t; });
  receiver.on_data(0, 2'000);
  receiver.on_data(0, 1'000);  // spurious retransmission
  EXPECT_EQ(delivered, 2'000u);
}

TEST(TcpReceiver, AutotuneGrowsWindow) {
  sim::Simulator simulator;
  TcpConfig config;  // stock: autotuning from 64 kB
  TcpReceiver receiver(simulator, config, config.autotune_initial_rwnd_bytes, [] {},
                       [](std::uint64_t) {});
  EXPECT_EQ(receiver.rwnd_limit(), 64u * 1024);
  std::uint64_t seq = 0;
  for (int i = 0; i < 50; ++i) {
    receiver.on_data(seq, 1460 * 2);
    seq += 1460 * 2;
  }
  EXPECT_GT(receiver.rwnd_limit(), 64u * 1024);
}

TEST(TcpReceiver, TunedWindowDoesNotAutotune) {
  sim::Simulator simulator;
  TcpConfig config;
  config.tuned_buffers = true;
  TcpReceiver receiver(simulator, config, 500'000, [] {}, [](std::uint64_t) {});
  std::uint64_t seq = 0;
  for (int i = 0; i < 500; ++i) {
    receiver.on_data(seq, 1460 * 2);
    seq += 1460 * 2;
  }
  EXPECT_EQ(receiver.rwnd_limit(), 500'000u);
}

TEST(TcpStats, RetransmissionsCountedUnderLoss) {
  TcpHarness harness(net::da2gc_profile(), tuned_config(), 150'000, 5);
  ASSERT_TRUE(harness.run(seconds(300)));
  const auto stats = harness.connection->stats();
  EXPECT_GT(stats.retransmissions, 0u);
  EXPECT_GT(stats.data_packets_sent, 150'000u / 1460);
  // The final ACKs can be lost on the 3.3%-loss uplink after the application
  // already has all data, so the sender's delivery counter may trail by a
  // few segments.
  EXPECT_LE(stats.bytes_delivered, 150'000u);
  EXPECT_GE(stats.bytes_delivered, 150'000u - 5 * 1460u);
}

TEST(TcpHandshake, TfoTakesOneRtt) {
  TcpConfig config = stock_config();
  config.handshake_rtts = 1;
  TcpHarness harness(net::lte_profile(), config, 10'000);
  ASSERT_TRUE(harness.run());
  // One 74 ms round trip (plus small-packet serialization).
  EXPECT_GE(harness.established_at, SimTime(milliseconds(74)));
  EXPECT_LE(harness.established_at, SimTime(milliseconds(95)));
}

TEST(TcpHandshake, ZeroRttEstablishesImmediately) {
  TcpConfig config = stock_config();
  config.handshake_rtts = 0;
  TcpHarness harness(net::lte_profile(), config, 10'000);
  ASSERT_TRUE(harness.run());
  EXPECT_EQ(harness.established_at, SimTime{0});
  EXPECT_EQ(harness.delivered, 10'000u);
}

TEST(TcpHandshake, FewerRttsFinishFasterInOrder) {
  std::array<SimTime, 3> finished{};
  for (std::uint32_t rtts = 0; rtts <= 2; ++rtts) {
    TcpConfig config = stock_config();
    config.handshake_rtts = rtts;
    TcpHarness harness(net::lte_profile(), config, 30'000, 4);
    EXPECT_TRUE(harness.run()) << rtts;
    finished[rtts] = harness.finished_at;
  }
  EXPECT_LT(finished[0], finished[1]);
  EXPECT_LT(finished[1], finished[2]);
}

TEST(TcpHandshake, ZeroRttSurvivesLoss) {
  TcpConfig config = stock_config();
  config.handshake_rtts = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    TcpHarness harness(net::mss_profile(), config, 20'000, seed);
    EXPECT_TRUE(harness.run(seconds(240))) << seed;
    EXPECT_EQ(harness.delivered, 20'000u) << seed;
  }
}

TEST(TcpIdleRestart, StockCollapsesWindowAfterIdle) {
  // Two bursts separated by a long idle period: with slow-start-after-idle
  // the second burst must take longer than back-to-back continuation.
  const auto run_with = [&](bool restart_after_idle) {
    TcpConfig config = tuned_config();
    config.slow_start_after_idle = restart_after_idle;
    TcpHarness harness(net::lte_profile(), config, 300'000, 9);
    harness.run(seconds(60));
    // Second object after 2 s of idle.
    const SimTime idle_end = harness.simulator.now() + seconds(2);
    harness.simulator.run_until(idle_end);
    harness.response_bytes += 300'000;
    harness.push();
    while (harness.delivered < harness.response_bytes &&
           harness.simulator.now() < idle_end + seconds(60)) {
      harness.simulator.run_until(harness.simulator.now() + milliseconds(50));
    }
    return harness.simulator.now() - idle_end;
  };
  const SimDuration with_restart = run_with(true);
  const SimDuration without_restart = run_with(false);
  EXPECT_LT(without_restart, with_restart);
}

// --- Impairment-layer regressions (bugs flushed out by `qperc torture`) ---

// Regression: on_ack_received used to take the receive window from *every*
// ACK. Under reordering, a stale ACK (older cumulative ack, smaller window)
// arriving after a newer one rolled peer_rwnd_ back; with nothing in flight
// and no zero-window probe, the sender never transmitted again — a permanent
// deadlock the torture harness reported as "empty event queue, page
// unfinished". Windows must only come from segments at/beyond SND.UNA.
TEST(TcpImpairment, StaleZeroWindowAckFromReorderingCannotStallSender) {
  sim::Simulator simulator;
  std::vector<TcpSegment> sent;
  TcpSender sender(simulator, TcpConfig{}, /*send_buffer_bytes=*/1 << 20,
                   [&](TcpSegment segment) { sent.push_back(segment); });
  sender.on_established(/*initial_peer_rwnd=*/2920, milliseconds(20));
  sender.write(2920);
  // A short window: long enough for the (unpaced) transmissions, well short
  // of the ~2x srtt tail-loss probe.
  simulator.run_until(simulator.now() + milliseconds(1));
  ASSERT_EQ(sent.size(), 2u);  // two MSS-sized segments fill the window

  TcpSegment fresh;  // acknowledges everything, re-opens a wide window
  fresh.has_ack = true;
  fresh.cumulative_ack = 2920;
  fresh.receive_window_bytes = 64 * 1024;
  sender.on_ack_received(fresh);
  ASSERT_TRUE(sender.all_acked());

  TcpSegment stale;  // the reordered older ACK, advertising the old window
  stale.has_ack = true;
  stale.cumulative_ack = 1460;
  stale.receive_window_bytes = 0;
  sender.on_ack_received(stale);

  // New application data must still go out: the stale zero window is ignored.
  sender.write(1460);
  simulator.run_until(simulator.now() + milliseconds(1));
  EXPECT_EQ(sent.size(), 3u);
}

TEST(TcpImpairment, DuplicateStormDeliversBytesExactlyOnce) {
  net::NetworkProfile profile = net::dsl_profile();
  profile.impairments.duplicate_rate = 0.4;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    TcpHarness harness(profile, stock_config(), 150'000, seed);
    ASSERT_TRUE(harness.run()) << "seed " << seed;
    // Byte-exact: duplicated segments must never double-count.
    EXPECT_EQ(harness.delivered, 150'000u) << "seed " << seed;
    EXPECT_GT(harness.network->downlink_stats().duplicates, 0u) << "seed " << seed;
  }
}

// The paper's SACK-capacity mechanism (§4.3): TCP ACKs carry at most
// kMaxSackBlocks (3) SACK blocks. Heavy reordering opens more holes than
// that can describe; the sender must still retire every in-flight segment
// (at worst by spurious retransmission), never wedging on an undescribable
// scoreboard.
TEST(TcpImpairment, ReorderingBeyondSackCapacityRetiresEverySegment) {
  net::NetworkProfile profile = net::dsl_profile();
  profile.impairments.reorder_rate = 0.4;
  profile.impairments.reorder_delay_min = milliseconds(2);
  profile.impairments.reorder_delay_max = milliseconds(60);
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    TcpHarness harness(profile, stock_config(), 400'000, seed);
    ASSERT_TRUE(harness.run(seconds(240))) << "seed " << seed;
    EXPECT_EQ(harness.delivered, 400'000u) << "seed " << seed;
    EXPECT_GT(harness.network->downlink_stats().reordered, 0u) << "seed " << seed;
  }
}

TEST(TcpImpairment, SurvivesGilbertElliottBurstsAndFlaps) {
  net::NetworkProfile profile = net::lte_profile();
  profile.impairments.gilbert_elliott = net::GilbertElliott{
      .enter_bad = 0.02, .exit_bad = 0.3, .loss_good = 0.0, .loss_bad = 0.5};
  profile.impairments.outage_start = SimTime{milliseconds(500)};
  profile.impairments.outage_duration = milliseconds(200);
  profile.impairments.outage_interval = seconds(2);
  TcpHarness harness(profile, stock_config(), 120'000, 3);
  ASSERT_TRUE(harness.run(seconds(240)));
  EXPECT_EQ(harness.delivered, 120'000u);
  EXPECT_GT(harness.connection->stats().retransmissions, 0u);
}

// A delay spike on the ACK path — every ACK ~800 ms late for 600 ms of sim
// time, nothing actually dropped — makes the RTO fire even though the data
// all arrived. F-RTO-style detection must recognize the late cumulative ACK
// of never-retransmitted segments as proof the timeout was spurious: undo
// the collapse and the backoff instead of re-sending the window.
TEST(TcpImpairment, AckDelaySpikeIsDetectedAsSpuriousRto) {
  TcpHarness harness(net::dsl_profile(), tuned_config(), 6'000'000, 5);
  net::LinkImpairments spike;
  spike.reorder_rate = 1.0;
  spike.reorder_delay_min = milliseconds(800);
  spike.reorder_delay_max = milliseconds(801);
  harness.simulator.schedule_at(SimTime{seconds(1)}, [&harness, spike] {
    harness.network->uplink().set_impairments(spike);
  });
  harness.simulator.schedule_at(SimTime{milliseconds(1600)}, [&harness] {
    harness.network->uplink().set_impairments(net::LinkImpairments{});
  });
  ASSERT_TRUE(harness.run(seconds(120)));
  EXPECT_EQ(harness.delivered, 6'000'000u);
  const net::TransportStats stats = harness.connection->stats();
  EXPECT_GE(stats.timeouts, 1u);
  EXPECT_GE(stats.spurious_timeouts, 1u);
}

// RACK finds losses in send-time order; the trace reports them in sequence
// order. Here one ACK makes RACK declare lost a retransmission of segment 1
// (sent at 60 ms) together with segments sent earlier but higher in
// sequence space (segment 11 at 50 ms).
TEST(TcpRack, LossesInOneAckAreTracedInSequenceOrder) {
  sim::Simulator simulator;
  trace::MemorySink sink;
  simulator.set_trace(&sink);
  TcpConfig config;
  config.mss = 1000;
  std::vector<std::pair<SimTime, std::uint64_t>> sent;  // (time, seq)
  TcpSender sender(simulator, config, 1'000'000, [&](TcpSegment segment) {
    sent.emplace_back(simulator.now(), segment.seq);
  });
  const auto ack = [&](std::uint64_t cumulative,
                       std::initializer_list<SackBlock> blocks) {
    TcpSegment segment;
    segment.has_ack = true;
    segment.cumulative_ack = cumulative;
    segment.receive_window_bytes = 1'000'000;
    for (const SackBlock& block : blocks) segment.sack_blocks[segment.sack_count++] = block;
    sender.on_ack_received(segment);
  };
  sender.on_established(1'000'000, milliseconds(100));
  sender.write(100'000);  // segments 0..9 leave at 0 ms
  simulator.run_until(SimTime{milliseconds(50)});
  ack(1000, {});  // segments 10 and 11 leave at 50 ms
  simulator.run_until(SimTime{milliseconds(60)});
  // Segments 2..10 arrive: segment 1 (sent at 0 ms) is lost by time and is
  // retransmitted at 60 ms, ahead of the new segments 12.. sent with it.
  ack(1000, {{2000, 11'000}});
  ASSERT_EQ(sender.stats().retransmissions, 1u);
  // The tail-loss probe re-sends the highest segment later still.
  while (sender.stats().tail_probes == 0) {
    simulator.run_until(simulator.now() + milliseconds(1));
  }
  const auto [probe_time, probe_seq] = sent.back();
  ASSERT_GT(probe_time, SimTime{milliseconds(80)});
  sink.clear();
  // Delivering the probe makes RACK declare everything sent at 50 and 60 ms
  // lost in one pass: segment 11, the retransmitted segment 1, 12, 13, ...
  ack(1000, {{2000, 11'000}, {probe_seq, probe_seq + 1000}});
  std::vector<std::uint64_t> lost;
  for (const auto& event : sink.of_type(trace::EventType::kPacketLost)) lost.push_back(event.id);
  ASSERT_GE(lost.size(), 3u);
  EXPECT_EQ(lost.front(), 1000u);
  EXPECT_EQ(lost[1], 11'000u);
  EXPECT_TRUE(std::is_sorted(lost.begin(), lost.end()));
  simulator.set_trace(nullptr);
}

}  // namespace
}  // namespace qperc::tcp
