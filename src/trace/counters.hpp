// Per-trial aggregates that only a trace-event stream can give.
//
// Counts of transport events are not here: net::TransportStats, bumped by the
// TCP and QUIC stacks and returned in PageLoadResult::transport, is their one
// ledger. The trace events emitted at the same program points are checked
// against it (tests/trace_test.cpp).
#pragma once

#include <cstdint>

#include "trace/trace.hpp"

namespace qperc::trace {

struct TrialCounters {
  // handshakes
  std::uint64_t handshakes_started = 0;
  std::uint64_t handshakes_completed = 0;
  /// Duration of the earliest-completed handshake (the root connection).
  SimDuration first_handshake_duration{0};

  // recovery
  std::uint64_t spurious_losses = 0;

  // cwnd trajectory & bytes-in-flight samples (one per processed ACK)
  std::uint64_t cwnd_samples = 0;
  std::uint64_t max_cwnd_bytes = 0;
  std::uint64_t max_bytes_in_flight = 0;

  /// Total time streams spent stalled on flow control (QUIC).
  SimDuration stream_blocked_time{0};

  // net
  std::uint64_t queue_drops = 0;
  std::uint64_t random_loss_drops = 0;
  std::uint64_t link_deliveries = 0;
  std::uint64_t burst_loss_drops = 0;  // Gilbert–Elliott correlated loss
  std::uint64_t outage_drops = 0;      // packets dropped during a link outage
  std::uint64_t link_duplicates = 0;   // extra copies delivered by duplication
  std::uint64_t link_reorders = 0;     // packets given extra reordering delay
  std::uint64_t policer_drops = 0;     // token-bucket policer exhausted

  /// Folds one event into the aggregates.
  void observe(const Event& event);
};

}  // namespace qperc::trace
