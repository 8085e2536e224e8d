// Seeded torture harness: sweeps extreme impairment grids (reordering,
// duplication, Gilbert–Elliott bursts, outages, zero-delay) across protocol
// stacks and study sites, asserting three properties per trial:
//
//   * liveness     — the trial terminates: no event-budget exhaustion and no
//     deadlock (page unfinished with an empty event queue means some layer
//     dropped its own recovery timer and nothing will ever happen again),
//   * invariants   — zero QPERC_CHECK/QPERC_DCHECK trips (counted via
//     check::set_violation_handler, so one run surveys every trial instead
//     of aborting on the first),
//   * conservation — every object's HTTP-reported body bytes never exceed
//     its size, and complete objects received exactly their size: transport
//     duplicates must not double-count, losses must not under-deliver.
//
// Deterministic in TortureOptions::seed (sites, trial seeds, and every
// impairment draw derive from it). Exposed as `qperc torture` and the
// torture_smoke ctest.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "net/contention.hpp"
#include "net/profile.hpp"
#include "util/time.hpp"

namespace qperc::runner {

enum class TortureGrid { kSmall, kFull };

/// Parses "small" / "full"; throws std::invalid_argument otherwise.
[[nodiscard]] TortureGrid parse_torture_grid(std::string_view name);

/// One cell of the impairment axis: a full profile (base network + the
/// impairment layer under test), optionally with cross-traffic contention
/// sharing the bottleneck (exercises the multi-endpoint network under the
/// same liveness/invariant/conservation assertions).
struct TortureScenario {
  std::string name;
  net::NetworkProfile profile;
  net::ContentionConfig contention{};
};

/// The impairment scenarios layered over one base network profile.
[[nodiscard]] std::vector<TortureScenario> torture_scenarios(const net::NetworkProfile& base);

/// Shared-bottleneck contention cells layered over one base profile: a
/// saturating cubic crowd and a reordering+mixed-on-off combination.
[[nodiscard]] std::vector<TortureScenario> contention_scenarios(
    const net::NetworkProfile& base);

/// Variable-rate and policing cells layered over one base profile: synthetic
/// LTE and Wi-Fi downlink traces, a token-bucket policer, and a 10x
/// rate-cliff step schedule (the spurious-RTO regression surface).
[[nodiscard]] std::vector<TortureScenario> schedule_scenarios(
    const net::NetworkProfile& base);

/// Degenerate profile with zero propagation delay and (near-)instant
/// serialization: every RTT sample collapses toward 0 ticks (the
/// RttEstimator positivity regression).
[[nodiscard]] net::NetworkProfile zero_delay_profile();

/// Virtual-time cap per torture trial (core::TrialSpec::time_cap). Shorter
/// than the study cap: heavily impaired loads legitimately outlive any
/// deadline (counted as incomplete, not failed), and liveness is guarded by
/// the event budget and the deadlock check, not the clock.
inline constexpr SimDuration kTortureTimeCap = seconds(90);

struct TortureOptions {
  std::uint64_t seed = 1;
  TortureGrid grid = TortureGrid::kSmall;
  /// Per-trial simulator event budget; exhausting it marks the trial hung.
  std::uint64_t max_events_per_trial = 20'000'000;
  /// Cap on failure detail lines kept in the report.
  std::size_t max_failures_reported = 25;
};

struct TortureReport {
  std::uint64_t trials = 0;
  std::uint64_t check_violations = 0;
  std::uint64_t hung_trials = 0;    // event budget exhausted or deadlocked
  std::uint64_t deadlocks = 0;      // subset of hung: empty queue, page unfinished
  std::uint64_t conservation_failures = 0;
  std::uint64_t exceptions = 0;
  /// Pages that ran out the virtual-time cap: legal under heavy impairment
  /// (an outage can stall a load past any deadline), reported for context.
  std::uint64_t incomplete_pages = 0;
  std::vector<std::string> failures;

  [[nodiscard]] bool ok() const noexcept {
    return check_violations == 0 && hung_trials == 0 && conservation_failures == 0 &&
           exceptions == 0;
  }
};

/// Runs the grid sequentially (the violation handler is process-global).
/// `progress`, when non-null, receives one line per grid row.
TortureReport run_torture(const TortureOptions& options, std::ostream* progress = nullptr);

}  // namespace qperc::runner
