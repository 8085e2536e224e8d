#include "trace/counters.hpp"

#include <algorithm>

namespace qperc::trace {

void TrialCounters::observe(const Event& event) {
  switch (event.type) {
    case EventType::kHandshakeStarted:
      ++handshakes_started;
      break;
    case EventType::kHandshakeCompleted:
      if (handshakes_completed == 0) {
        first_handshake_duration = SimDuration{static_cast<std::int64_t>(event.value)};
      }
      ++handshakes_completed;
      break;
    case EventType::kStreamUnblocked:
      stream_blocked_time += SimDuration{static_cast<std::int64_t>(event.value)};
      break;
    case EventType::kSpuriousLoss:
      ++spurious_losses;
      break;
    case EventType::kMetricsUpdated:
      ++cwnd_samples;
      max_cwnd_bytes = std::max(max_cwnd_bytes, event.value);
      max_bytes_in_flight = std::max(max_bytes_in_flight, event.bytes);
      break;
    case EventType::kLinkDroppedQueueFull:
      ++queue_drops;
      break;
    case EventType::kLinkDroppedRandomLoss:
      ++random_loss_drops;
      break;
    case EventType::kLinkDelivered:
      ++link_deliveries;
      break;
    case EventType::kLinkDroppedBurstLoss:
      ++burst_loss_drops;
      break;
    case EventType::kLinkDroppedOutage:
      ++outage_drops;
      break;
    case EventType::kLinkDuplicated:
      ++link_duplicates;
      break;
    case EventType::kLinkReordered:
      ++link_reorders;
      break;
    case EventType::kLinkDroppedPolicer:
      ++policer_drops;
      break;
    default:  // counted by net::TransportStats or PageLoadResult, or not at all
      break;
  }
}

}  // namespace qperc::trace
