// Trace-layer tests: event model, causal ordering of a traced trial, event
// counts against the transport ledger, null-sink bit-exactness, the 1-RTT
// handshake advantage read from trace events, JSONL export, and link-event
// counts.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/protocol.hpp"
#include "core/trial.hpp"
#include "net/link.hpp"
#include "net/profile.hpp"
#include "sim/simulator.hpp"
#include "trace/counters.hpp"
#include "trace/jsonl_sink.hpp"
#include "trace/memory_sink.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"
#include "web/website.hpp"

namespace qperc {
namespace {

const web::Website& site_by_name(const std::string& name) {
  static const auto catalog = web::study_catalog(7);
  return web::site_by_name(catalog, name);
}

TEST(TraceModel, EveryEventTypeHasCategoryAndName) {
  using trace::EventType;
  for (std::uint8_t raw = 0; raw <= static_cast<std::uint8_t>(EventType::kLinkDelivered);
       ++raw) {
    const auto type = static_cast<EventType>(raw);
    EXPECT_FALSE(trace::to_string(type).empty());
    EXPECT_FALSE(trace::to_string(trace::category_of(type)).empty());
  }
  EXPECT_EQ(trace::category_of(EventType::kPacketLost), trace::Category::kRecovery);
  EXPECT_EQ(trace::category_of(EventType::kHandshakeCompleted),
            trace::Category::kTransport);
  EXPECT_EQ(trace::category_of(EventType::kResponseComplete), trace::Category::kHttp);
  EXPECT_EQ(trace::category_of(EventType::kPageFinished), trace::Category::kBrowser);
  EXPECT_EQ(trace::category_of(EventType::kLinkDelivered), trace::Category::kNet);
}

TEST(TracedTrial, QuicEventsAreCausallyOrdered) {
  trace::MemorySink sink;
  const auto result = core::run_trial(core::TrialSpec(site_by_name("apache.org"), core::protocol_by_name("QUIC"), net::mss_profile(), /*seed=*/3).with_trace(&sink));
  ASSERT_TRUE(result.metrics.finished);
  ASSERT_FALSE(sink.events().empty());

  // Emission order is causal order: timestamps never go backwards.
  SimTime last{0};
  for (const auto& event : sink.events()) {
    EXPECT_GE(event.time, last);
    last = event.time;
  }

  // Every flow's handshake starts before it completes.
  const auto started = sink.of_type(trace::EventType::kHandshakeStarted);
  const auto completed = sink.of_type(trace::EventType::kHandshakeCompleted);
  ASSERT_FALSE(started.empty());
  ASSERT_EQ(started.size(), completed.size());
  for (const auto& done : completed) {
    bool found = false;
    for (const auto& start : started) {
      if (start.flow == done.flow) {
        EXPECT_LE(start.time, done.time);
        found = true;
      }
    }
    EXPECT_TRUE(found) << "handshake_completed without handshake_started, flow "
                       << done.flow;
  }

  // QUIC only retransmits frames that a loss declaration requeued, so the
  // first loss event precedes the first retransmission.
  const auto* first_lost = sink.first(trace::EventType::kPacketLost);
  const auto* first_retx = sink.first(trace::EventType::kPacketRetransmitted);
  ASSERT_NE(first_lost, nullptr);  // MSS loses 6% of packets
  ASSERT_NE(first_retx, nullptr);
  EXPECT_LE(first_lost->time, first_retx->time);

  // The lossy in-flight profile exercises every layer's events.
  EXPECT_GT(sink.count(trace::EventType::kHandshakePacketSent), 0u);
  EXPECT_GT(sink.count(trace::EventType::kPacketSent), 0u);
  EXPECT_GT(sink.count(trace::EventType::kPacketReceived), 0u);
  EXPECT_GT(sink.count(trace::EventType::kAckSent), 0u);
  EXPECT_GT(sink.count(trace::EventType::kRequestSubmitted), 0u);
  EXPECT_GT(sink.count(trace::EventType::kResponseComplete), 0u);
  EXPECT_GT(sink.count(trace::EventType::kObjectComplete), 0u);
  EXPECT_GT(sink.count(trace::EventType::kLinkDelivered), 0u);
  EXPECT_GT(sink.count(trace::EventType::kLinkDroppedRandomLoss), 0u);
  EXPECT_EQ(sink.count(trace::EventType::kPageFinished), 1u);
  EXPECT_EQ(sink.of_type(trace::EventType::kPageFinished).front().value, 1u);
}

/// The trace events of the eight net::TransportStats fields are emitted at
/// the program points that bump the ledger, so counting them reproduces it.
void expect_events_match_ledger(const trace::MemorySink& sink,
                                const net::TransportStats& stats) {
  using trace::EventType;
  EXPECT_EQ(sink.count(EventType::kPacketSent) + sink.count(EventType::kPacketRetransmitted),
            stats.data_packets_sent);
  EXPECT_EQ(sink.count(EventType::kPacketRetransmitted), stats.retransmissions);
  EXPECT_EQ(sink.count(EventType::kRtoFired), stats.timeouts);
  EXPECT_EQ(sink.count(EventType::kTlpFired), stats.tail_probes);
  EXPECT_EQ(sink.count(EventType::kCongestionEvent), stats.congestion_events);
  EXPECT_EQ(sink.count(EventType::kHandshakePacketSent), stats.handshake_packets);
  EXPECT_EQ(sink.count(EventType::kHandshakeRetransmitted), stats.handshake_retransmissions);
  EXPECT_EQ(sink.count(EventType::kAckSent), stats.acks_sent);
}

TEST(TracedTrial, CountersEqualTransportStats) {
  struct Input {
    const char* site;
    const char* protocol;
    net::NetworkProfile profile;
  };
  std::vector<Input> inputs = {{"apache.org", "TCP", net::mss_profile()},
                               {"apache.org", "QUIC", net::mss_profile()}};
  for (const char* protocol : {"TCP", "TCP+BBR", "QUIC", "QUIC+BBR"}) {
    for (const auto& profile : {net::da2gc_profile(), net::mss_profile()}) {
      inputs.push_back({"nytimes.com", protocol, profile});
    }
  }
  for (const Input& input : inputs) {
    trace::MemorySink sink;
    const auto& site = site_by_name(input.site);
    const auto result = core::run_trial(
        core::TrialSpec(site, core::protocol_by_name(input.protocol), input.profile,
                        /*seed=*/11)
            .with_trace(&sink));
    SCOPED_TRACE(std::string(input.site) + " / " + input.protocol + " / " +
                 input.profile.name);
    expect_events_match_ledger(sink, result.transport);
    EXPECT_GT(result.transport.retransmissions, 0u);  // lossy links force recovery
    trace::TrialCounters counters;
    for (const auto& event : sink.events()) counters.observe(event);
    EXPECT_GT(counters.cwnd_samples, 0u);
    EXPECT_GT(counters.max_cwnd_bytes, 0u);
    EXPECT_EQ(sink.count(trace::EventType::kObjectComplete),
              site.objects.size() * (result.metrics.finished ? 1 : 0));
    EXPECT_EQ(sink.count(trace::EventType::kConnectionOpened), result.connections_opened);
  }
}

TEST(TracedTrial, NullSinkIsBitExact) {
  const auto& site = site_by_name("apache.org");
  const auto& protocol = core::protocol_by_name("QUIC");
  const auto& profile = net::da2gc_profile();

  const auto untraced = core::run_trial(core::TrialSpec(site, protocol, profile, /*seed=*/5));
  trace::MemorySink sink;
  const auto traced = core::run_trial(core::TrialSpec(site, protocol, profile, /*seed=*/5).with_trace(&sink));
  const auto untraced_again = core::run_trial(core::TrialSpec(site, protocol, profile, /*seed=*/5).with_trace(nullptr));

  EXPECT_FALSE(sink.events().empty());
  for (const auto* other : {&traced, &untraced_again}) {
    EXPECT_EQ(untraced.metrics.first_visual_change, other->metrics.first_visual_change);
    EXPECT_EQ(untraced.metrics.last_visual_change, other->metrics.last_visual_change);
    EXPECT_EQ(untraced.metrics.page_load_time, other->metrics.page_load_time);
    EXPECT_EQ(untraced.metrics.visual_complete_85, other->metrics.visual_complete_85);
    EXPECT_EQ(untraced.metrics.speed_index, other->metrics.speed_index);
    EXPECT_EQ(untraced.metrics.finished, other->metrics.finished);
    EXPECT_EQ(untraced.connections_opened, other->connections_opened);
    EXPECT_EQ(untraced.object_complete_at, other->object_complete_at);
    ASSERT_EQ(untraced.vc_curve.size(), other->vc_curve.size());
    for (std::size_t i = 0; i < untraced.vc_curve.size(); ++i) {
      EXPECT_EQ(untraced.vc_curve[i].time, other->vc_curve[i].time);
      EXPECT_EQ(untraced.vc_curve[i].completeness, other->vc_curve[i].completeness);
    }
    EXPECT_EQ(untraced.transport.data_packets_sent, other->transport.data_packets_sent);
    EXPECT_EQ(untraced.transport.retransmissions, other->transport.retransmissions);
    EXPECT_EQ(untraced.transport.bytes_delivered, other->transport.bytes_delivered);
    EXPECT_EQ(untraced.transport.acks_sent, other->transport.acks_sent);
  }
}

TEST(TracedTrial, QuicHandshakeSavesOneRtt) {
  // §4.3 / Figure 1: on a fresh connection gQUIC completes its handshake in
  // one round trip (inchoate CHLO -> REJ) where TCP+TLS needs two
  // (SYN -> SYN/ACK, then CH -> server flight). Read both durations from the
  // trace and check them against the DSL profile's 24 ms minimum RTT.
  const auto profile = net::dsl_profile();
  const double rtt_ns = static_cast<double>(profile.min_rtt.count());

  const auto first_handshake_ns = [&](const char* protocol) {
    trace::MemorySink sink;
    (void)core::run_trial(core::TrialSpec(site_by_name("apache.org"), core::protocol_by_name(protocol), profile, /*seed=*/7).with_trace(&sink));
    const auto* done = sink.first(trace::EventType::kHandshakeCompleted);
    EXPECT_NE(done, nullptr);
    return done == nullptr ? 0.0 : static_cast<double>(done->value);
  };

  const double quic_ns = first_handshake_ns("QUIC");
  const double tcp_ns = first_handshake_ns("TCP");
  // One round trip plus serialization slack for QUIC; two-plus for TCP (the
  // ~4.3 KB TLS server flight adds serialization time on a 25 Mbps link).
  EXPECT_GE(quic_ns, 1.0 * rtt_ns);
  EXPECT_LE(quic_ns, 1.5 * rtt_ns);
  EXPECT_GE(tcp_ns, 2.0 * rtt_ns);
  EXPECT_LE(tcp_ns, 2.7 * rtt_ns);
  // The advantage itself: about one RTT.
  EXPECT_GE(tcp_ns - quic_ns, 0.5 * rtt_ns);
  EXPECT_LE(tcp_ns - quic_ns, 1.7 * rtt_ns);
}

TEST(JsonlSink, EmitsOneValidObjectPerEvent) {
  std::ostringstream out;
  trace::JsonlSink sink(out);
  (void)core::run_trial(core::TrialSpec(site_by_name("apache.org"), core::protocol_by_name("QUIC"), net::dsl_profile(), /*seed=*/7).with_trace(&sink));
  ASSERT_GT(sink.events_written(), 0u);

  std::istringstream lines(out.str());
  std::string line;
  std::uint64_t count = 0;
  while (std::getline(lines, line)) {
    ++count;
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"time_ns\":"), std::string::npos);
    EXPECT_NE(line.find("\"category\":\""), std::string::npos);
    EXPECT_NE(line.find("\"event\":\""), std::string::npos);
    EXPECT_NE(line.find("\"endpoint\":\""), std::string::npos);
  }
  EXPECT_EQ(count, sink.events_written());
}

TEST(LinkTrace, EventsMatchLinkStats) {
  sim::Simulator simulator;
  trace::MemorySink sink;
  simulator.set_trace(&sink);

  std::uint64_t delivered = 0;
  net::Link link(simulator, DataRate::megabits_per_second(10), milliseconds(5),
                 /*loss_rate=*/0.3, /*queue_capacity_bytes=*/4 * 1500, Rng(1),
                 [&delivered](net::Packet) { ++delivered; });
  link.set_trace_direction(1);

  for (int i = 0; i < 200; ++i) {
    net::Packet packet;
    packet.flow = net::FlowId{1};
    packet.wire_bytes = 1500;
    link.send(std::move(packet));
  }
  simulator.run();

  const auto& stats = link.stats();
  EXPECT_EQ(sink.count(trace::EventType::kLinkDelivered), stats.packets_delivered);
  EXPECT_EQ(sink.count(trace::EventType::kLinkDroppedQueueFull), stats.drops_queue_full);
  EXPECT_EQ(sink.count(trace::EventType::kLinkDroppedRandomLoss), stats.drops_random_loss);
  EXPECT_GT(stats.drops_queue_full + stats.drops_random_loss, 0u);
  EXPECT_EQ(delivered, stats.packets_delivered);
  for (const auto& event : sink.events()) {
    EXPECT_EQ(event.value, 1u);  // the direction tag set above
    EXPECT_EQ(event.category(), trace::Category::kNet);
  }
}

TEST(TraceCounters, StreamBlockedTimeAccumulates) {
  trace::TrialCounters counters;
  trace::Event blocked;
  blocked.type = trace::EventType::kStreamBlocked;
  counters.observe(blocked);
  trace::Event unblocked;
  unblocked.type = trace::EventType::kStreamUnblocked;
  unblocked.value = 5'000'000;  // 5 ms stall
  counters.observe(unblocked);
  counters.observe(unblocked);
  EXPECT_EQ(counters.stream_blocked_time, SimDuration{10'000'000});
}

}  // namespace
}  // namespace qperc
