// Tests for the extension congestion controller (NewReno) and cross-flow
// fairness properties of the whole CC family.
#include <gtest/gtest.h>

#include "cc/factory.hpp"
#include "cc/reno.hpp"
#include "net/emulated_network.hpp"
#include "net/profile.hpp"
#include "tcp/connection.hpp"
#include "tests/transport_test_util.hpp"

namespace qperc::cc {
namespace {

constexpr std::uint64_t kMss = 1460;

AckSample make_ack(std::uint64_t bytes, SimDuration rtt) {
  AckSample sample;
  sample.bytes_acked = bytes;
  sample.rtt = rtt;
  sample.smoothed_rtt = rtt;
  return sample;
}

TEST(Reno, SlowStartThenLinearGrowth) {
  Reno reno(RenoConfig{.initial_window_segments = 10});
  const std::uint64_t initial = reno.congestion_window();
  reno.on_ack(SimTime{0}, make_ack(initial, milliseconds(50)));
  EXPECT_EQ(reno.congestion_window(), 2 * initial);  // slow start doubles

  reno.on_congestion_event(SimTime{0}, 0);  // leave slow start
  const std::uint64_t after_loss = reno.congestion_window();
  EXPECT_EQ(after_loss, initial);  // halved

  // One full window of ACKs grows the window by exactly one MSS.
  reno.on_ack(SimTime{0}, make_ack(after_loss, milliseconds(50)));
  EXPECT_EQ(reno.congestion_window(), after_loss + kMss);
}

TEST(Reno, TimeoutCollapsesToMinimum) {
  Reno reno(RenoConfig{.initial_window_segments = 50});
  reno.on_retransmission_timeout();
  EXPECT_EQ(reno.congestion_window(), 2 * kMss);
  EXPECT_EQ(reno.ssthresh(), 25 * kMss);
}

TEST(Reno, IdleRestartResetsToInitialWindow) {
  Reno reno(RenoConfig{.initial_window_segments = 10});
  reno.on_ack(SimTime{0}, make_ack(20 * kMss, milliseconds(50)));
  reno.on_restart_after_idle();
  EXPECT_EQ(reno.congestion_window(), 10 * kMss);
}

TEST(Factory, BuildsExtensionControllers) {
  EXPECT_EQ(make_congestion_controller(CcKind::kReno, 10, kMss)->name(), "reno");
  EXPECT_EQ(to_string(CcKind::kReno), "NewReno");
}

/// Two long flows with the same controller sharing one bottleneck should
/// split it roughly fairly (within 3:1 after convergence).
class FairnessTest : public ::testing::TestWithParam<CcKind> {};

TEST_P(FairnessTest, TwoFlowsShareTheBottleneck) {
  sim::Simulator simulator;
  net::NetworkProfile profile = net::lte_profile();
  net::EmulatedNetwork network(simulator, profile, Rng(9));

  tcp::TcpConfig config;
  config.congestion_control = GetParam();
  config.tuned_buffers = true;
  config.initial_window_segments = 10;
  config.pacing = true;

  struct Flow {
    std::unique_ptr<tcp::TcpConnection> connection;
    std::uint64_t delivered = 0;
    std::uint64_t written = 0;
  };
  Flow flows[2];
  constexpr std::uint64_t kForever = 50'000'000;
  for (auto& flow : flows) {
    auto* f = &flow;
    flow.connection = std::make_unique<tcp::TcpConnection>(
        simulator, network, net::ServerId{0}, config,
        tcp::TcpConnection::Callbacks{
            .on_established = [f] { f->written += f->connection->server_write(kForever); },
            .on_request_bytes = {},
            .on_response_bytes = [f](std::uint64_t t) { f->delivered = t; },
        });
    flow.connection->set_server_on_writable(
        [f] { f->written += f->connection->server_write(kForever - f->written); });
    flow.connection->connect();
  }

  // Let both flows converge, then measure goodput over a window.
  simulator.run_until(SimTime(seconds(10)));
  const std::uint64_t mark0 = flows[0].delivered;
  const std::uint64_t mark1 = flows[1].delivered;
  simulator.run_until(SimTime(seconds(30)));
  const double rate0 = static_cast<double>(flows[0].delivered - mark0);
  const double rate1 = static_cast<double>(flows[1].delivered - mark1);
  ASSERT_GT(rate0, 0.0);
  ASSERT_GT(rate1, 0.0);
  const double ratio = rate0 > rate1 ? rate0 / rate1 : rate1 / rate0;
  EXPECT_LT(ratio, 3.0) << "rates " << rate0 << " vs " << rate1;

  // Combined goodput should use most of the 10.5 Mbps downlink.
  const double total_mbps = (rate0 + rate1) * 8.0 / 20.0 / 1e6;
  EXPECT_GT(total_mbps, 10.5 * 0.6);
}

INSTANTIATE_TEST_SUITE_P(AllControllers, FairnessTest,
                         ::testing::Values(CcKind::kReno, CcKind::kCubic, CcKind::kBbr),
                         [](const ::testing::TestParamInfo<CcKind>& info) {
                           return std::string(to_string(info.param));
                         });

}  // namespace
}  // namespace qperc::cc
