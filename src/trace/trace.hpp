// Structured per-trial tracing, modeled on IETF qlog (draft-ietf-quic-qlog):
// every protocol layer reports its mechanism-level events (handshake steps,
// transmissions, loss detection, congestion reactions, HTTP exchanges,
// browser milestones, link-queue activity) to one TraceSink.
//
// The sink is attached to the sim::Simulator, so instrumentation hooks cost a
// single pointer test when tracing is off (the default); no trial code path
// allocates, formats, or branches further for an untraced run.
#pragma once

#include <cstdint>
#include <string_view>

#include "util/time.hpp"

namespace qperc::trace {

/// qlog-style event categories. Every EventType belongs to exactly one.
enum class Category : std::uint8_t { kTransport, kRecovery, kHttp, kBrowser, kNet };

/// Which endpoint of a connection produced the event (kNone for layers that
/// have no endpoint notion, e.g. links and the browser).
enum class Endpoint : std::uint8_t { kNone = 0, kClient, kServer };

/// Every event the testbed can emit. The `id` / `bytes` / `value` fields of
/// Event are event-specific; the full schema is documented in
/// EXPERIMENTS.md ("Tracing & debugging a trial").
enum class EventType : std::uint8_t {
  // transport
  kHandshakeStarted,        // id = configured handshake RTTs (0 = 0-RTT)
  kHandshakePacketSent,     // id = handshake step, bytes = wire bytes
  kHandshakeRetransmitted,  // value = backoff exponent
  kHandshakeCompleted,      // id = configured RTTs, value = duration (ns)
  kPacketSent,              // id = seq / packet number, bytes = payload
  kPacketReceived,          // id = seq / packet number, bytes = payload
  kAckSent,                 // id = cumulative ack / packet number
  kStreamBlocked,           // id = blocked stream id (flow-control stall begins)
  kStreamUnblocked,         // value = stalled duration (ns)
  // recovery
  kPacketLost,              // id = seq / packet number, value = 1 if via RTO
  kPacketRetransmitted,     // id = seq / packet number, bytes = payload
  kRtoFired,                // value = backoff exponent
  kTlpFired,                // tail-loss / PTO probe
  kCongestionEvent,         // bytes = bytes in flight at the reduction
  kSpuriousLoss,            // id = seq / pn, value = 1 if declared lost by RTO
  kMetricsUpdated,          // id = srtt (ns), bytes = in flight, value = cwnd
  // http
  kRequestSubmitted,        // id = object id, bytes = body, value = stream id
  kResponseStarted,         // id = object id, value = stream id
  kResponseComplete,        // id = object id, bytes = body bytes delivered
  // browser
  kConnectionOpened,        // id = origin
  kObjectRequested,         // id = object id, bytes = object size
  kObjectComplete,          // id = object id, value = objects completed so far
  kPageFinished,            // value = 1 if complete, 0 if the time cap hit
  // net (value = 0 uplink, 1 downlink; bytes = wire bytes). Emitted when
  // the link decides: at enqueue, except kLinkDelivered at delivery.
  kLinkEnqueued,
  kLinkDroppedQueueFull,
  kLinkDroppedRandomLoss,   // id = serialization end (ns)
  kLinkDelivered,
  kLinkDroppedBurstLoss,    // Gilbert–Elliott correlated loss; id as above
  kLinkDroppedOutage,       // link was down (outage/flap window); id as above
  kLinkDuplicated,          // a second copy was scheduled for delivery
  kLinkReordered,           // id = extra delay applied (ns)
  kLinkDroppedPolicer,      // token-bucket policer exhausted; id as above
};

[[nodiscard]] Category category_of(EventType type) noexcept;
[[nodiscard]] std::string_view to_string(Category category) noexcept;
[[nodiscard]] std::string_view to_string(Endpoint endpoint) noexcept;
[[nodiscard]] std::string_view to_string(EventType type) noexcept;

/// One trace record. Interpretation of `id`/`bytes`/`value` depends on the
/// EventType (see the enum comments); unused fields are zero.
struct Event {
  SimTime time{0};
  EventType type{};
  Endpoint endpoint = Endpoint::kNone;
  std::uint64_t flow = 0;  // transport flow id (0 when not connection-bound)
  std::uint64_t id = 0;
  std::uint64_t bytes = 0;
  std::uint64_t value = 0;

  [[nodiscard]] Category category() const noexcept { return category_of(type); }
};

/// Receives every event of a traced run, in emission (= causal) order.
/// Implementations must not re-enter the simulator.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void on_event(const Event& event) = 0;
};

}  // namespace qperc::trace
