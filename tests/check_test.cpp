// QPERC_CHECK / QPERC_DCHECK semantics: formatting, handler dispatch, and
// that the seeded invariants actually trip when protocol state is corrupted
// through the public API. The release no-op half lives in
// tests/check_release_test.cpp (a TU with QPERC_FORCE_DISABLE_INVARIANTS).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "quic/send_side.hpp"
#include "sim/simulator.hpp"
#include "tcp/sender.hpp"
#include "tests/transport_test_util.hpp"
#include "util/check.hpp"
#include "util/time.hpp"

namespace qperc {
namespace {

// The handler is a plain function pointer, so the observations go through
// file-level state; ScopedHandler resets it and restores the previous
// handler on scope exit.
int g_violations = 0;
std::vector<std::string> g_messages;

void counting_handler(const char* /*file*/, int /*line*/, const char* /*expr*/,
                      const std::string& message) {
  ++g_violations;
  g_messages.push_back(message);
}

class ScopedHandler {
 public:
  ScopedHandler() : previous_(check::set_violation_handler(counting_handler)) {
    g_violations = 0;
    g_messages.clear();
  }
  ~ScopedHandler() { check::set_violation_handler(previous_); }
  ScopedHandler(const ScopedHandler&) = delete;
  ScopedHandler& operator=(const ScopedHandler&) = delete;

 private:
  check::ViolationHandler previous_;
};

TEST(Check, PassingChecksAreSilent) {
  ScopedHandler scope;
  QPERC_CHECK(1 + 1 == 2);
  QPERC_CHECK_EQ(4, 4);
  QPERC_CHECK_LT(1, 2) << "never formatted";
  EXPECT_EQ(g_violations, 0);
}

TEST(Check, FailureReportsAndExecutionContinues) {
  ScopedHandler scope;
  bool reached = false;
  QPERC_CHECK(2 + 2 == 5) << "arithmetic drifted";
  reached = true;  // the counting handler returns, unlike the abort default
  EXPECT_TRUE(reached);
  ASSERT_EQ(g_violations, 1);
  EXPECT_NE(g_messages[0].find("QPERC_CHECK(2 + 2 == 5)"), std::string::npos);
  EXPECT_NE(g_messages[0].find("check_test.cpp"), std::string::npos);
  EXPECT_NE(g_messages[0].find("arithmetic drifted"), std::string::npos);
}

TEST(Check, ComparisonFailurePrintsBothOperands) {
  ScopedHandler scope;
  const int lhs = 7;
  QPERC_CHECK_EQ(lhs, 9);
  ASSERT_EQ(g_violations, 1);
  EXPECT_NE(g_messages[0].find("7 vs 9"), std::string::npos);
}

TEST(Check, DurationOperandsPrintTickCounts) {
  ScopedHandler scope;
  QPERC_CHECK_LE(milliseconds(2), milliseconds(1));
  ASSERT_EQ(g_violations, 1);
  EXPECT_NE(g_messages[0].find("2000000ns"), std::string::npos);
}

TEST(Check, SuccessfulCheckEvaluatesOperandsOnce) {
  ScopedHandler scope;
  int evaluations = 0;
  QPERC_CHECK_GE(++evaluations, 1);
  EXPECT_EQ(evaluations, 1);
  EXPECT_EQ(g_violations, 0);
}

// A forged cumulative ACK beyond SND.NXT must trip the always-on sender
// invariant: the peer acknowledging bytes that were never sent means every
// downstream delivery/cwnd statistic is garbage.
TEST(CheckInvariants, TcpSenderRejectsAckBeyondSndNxt) {
  ScopedHandler scope;
  sim::Simulator simulator;
  tcp::TcpConfig config;
  tcp::TcpSender sender(simulator, config, 1'000'000, [](tcp::TcpSegment) {});
  sender.on_established(/*initial_peer_rwnd=*/1'000'000, milliseconds(40));
  sender.write(10'000);
  simulator.run_until(SimTime{milliseconds(5)});  // let the initial window go out
  EXPECT_EQ(g_violations, 0);

  tcp::TcpSegment forged;
  forged.has_ack = true;
  forged.cumulative_ack = 1'000'000;  // way past anything ever written
  forged.receive_window_bytes = 1'000'000;
  sender.on_ack_received(forged);
  ASSERT_GE(g_violations, 1);
  EXPECT_NE(g_messages[0].find("beyond SND.NXT"), std::string::npos);
}

// Same on the QUIC side: an ACK range naming a packet number that was never
// allocated means the packet-number space is corrupt.
TEST(CheckInvariants, QuicSendSideRejectsAckOfUnsentPacket) {
  ScopedHandler scope;
  sim::Simulator simulator;
  quic::QuicConfig config;
  quic::QuicSendSide send_side(simulator, config, [](quic::QuicPacket) {});
  send_side.on_established(milliseconds(40));
  EXPECT_EQ(g_violations, 0);

  quic::QuicPacket forged;
  forged.has_ack = true;
  forged.ack_ranges = testutil::forge_ack_ranges(simulator.arena(), {{5, 9}});  // never sent
  send_side.on_ack_frame(forged);
  ASSERT_GE(g_violations, 1);
  EXPECT_NE(g_messages[0].find("never sent"), std::string::npos);
}

}  // namespace
}  // namespace qperc
