// One testbed trial: a full website visit with a fresh browser over a fresh
// emulated network — the unit §3 repeats >=31 times per condition. With a
// contention config, the same unit runs against N seeded cross-traffic flows
// sharing the bottleneck (the fairness experiments).
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "browser/page_loader.hpp"
#include "core/protocol.hpp"
#include "net/contention.hpp"
#include "net/profile.hpp"
#include "sim/simulator.hpp"
#include "trace/trace.hpp"
#include "web/website.hpp"

namespace qperc::core {

/// Everything that defines one trial. A TrialSpec is the single entry point
/// into the simulator — single- and multi-flow alike; new knobs (trace
/// sinks, event budgets, contention, ...) extend this struct instead of
/// multiplying signatures.
///
/// `site` and `protocol` are borrowed (the catalog and the protocol table
/// outlive every trial); `profile` is stored by value because the profile
/// factories return temporaries. Results are deterministic in
/// (site, protocol, profile, contention, seed, time_cap) — trace and
/// max_events never alter scheduling or RNG draws, and a default (disabled)
/// contention config performs zero extra draws, so single-flow goldens are
/// bit-exact.
struct TrialSpec {
  const web::Website* site = nullptr;
  const ProtocolConfig* protocol = nullptr;
  net::NetworkProfile profile{};
  std::uint64_t seed = 0;
  /// Shared-bottleneck cross traffic; default (flows == 0) is the paper's
  /// private-link topology.
  net::ContentionConfig contention{};
  /// Optional trace sink attached to the simulator for the trial's lifetime;
  /// nullptr (the default) keeps every instrumentation hook a pointer test.
  trace::TraceSink* trace = nullptr;
  /// Hard cap on simulator events for this trial (a runaway guard the
  /// campaign runner can tighten); the page load stops when it is exhausted.
  std::uint64_t max_events = sim::Simulator::kDefaultEventCap;
  /// Virtual-time cap on the page load; an unfinished page reports it as PLT.
  SimDuration time_cap = browser::kDefaultLoadTimeCap;

  TrialSpec() = default;
  TrialSpec(const web::Website& site_ref, const ProtocolConfig& protocol_ref,
            net::NetworkProfile profile_value, std::uint64_t trial_seed)
      : site(&site_ref),
        protocol(&protocol_ref),
        profile(std::move(profile_value)),
        seed(trial_seed) {}

  /// Fluent option setters, so call sites read as one expression:
  ///   run_trial(TrialSpec(site, protocol, profile, seed).with_trace(&sink))
  TrialSpec&& with_trace(trace::TraceSink* sink) && {
    trace = sink;
    return std::move(*this);
  }
  TrialSpec&& with_max_events(std::uint64_t cap) && {
    max_events = cap;
    return std::move(*this);
  }
  TrialSpec&& with_time_cap(SimDuration cap) && {
    time_cap = cap;
    return std::move(*this);
  }
  TrialSpec&& with_contention(net::ContentionConfig config) && {
    contention = config;
    return std::move(*this);
  }
};

/// What the cross-traffic side of a contended trial observed; filled by
/// TrialContext::run when the spec enables contention. Plain heap containers:
/// this is a per-trial result copy-out, not hot-path state.
struct ContentionOutcome {
  struct Flow {
    /// Congestion-control label of the flow ("cubic", "reno", "bbr", "quic").
    std::string_view protocol;
    std::uint64_t bytes_delivered = 0;
    /// Delivered bits / elapsed time from the flow's start to the end of the
    /// page load (the measurement window every flow shares).
    double goodput_bps = 0.0;
    std::uint64_t retransmissions = 0;
  };
  std::vector<Flow> flows;
  /// Peak occupancy and capacity of the shared bottleneck downlink queue.
  std::uint64_t peak_queue_bytes = 0;
  std::uint64_t queue_capacity_bytes = 0;
  /// Droptail drops across both bottleneck directions.
  std::uint64_t queue_drops = 0;
  /// Page-load duration = the measurement window's right edge.
  SimDuration measured{0};
};

/// Runs a single page load as described by `spec`.
/// Throws std::invalid_argument if `spec.site` or `spec.protocol` is null.
[[nodiscard]] browser::PageLoadResult run_trial(const TrialSpec& spec);

}  // namespace qperc::core
