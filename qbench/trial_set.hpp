// Closed-loop trial batches through one reused core::TrialContext, untraced
// (the timed path) and traced (the per-layer split).
//
// The traced pass attaches a LayerSink: it stamps every trace event with the
// host clock and charges the time since the previous event to the category
// of the later event (net, transport, recovery, http, browser). Time before a
// trial's first event and after its last is charged to core: the wiring and
// the result copy-out around the event loop.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "core/protocol.hpp"
#include "core/trial.hpp"
#include "core/trial_context.hpp"
#include "measure.hpp"
#include "trace/trace.hpp"
#include "web/website.hpp"

namespace qperc::bench {

/// One trial condition.
struct Cell {
  const web::Website* site = nullptr;
  const core::ProtocolConfig* protocol = nullptr;
  net::NetworkProfile profile;
  net::ContentionConfig contention;
  /// Per-cell table row this cell reports into: "<protocol>.<network>" with
  /// '+' mapped to '-' (e.g. "QUIC-BBR.MSS").
  std::string group;
};

[[nodiscard]] std::string cell_group(const core::ProtocolConfig& protocol,
                                     net::NetworkKind network);

struct TrialInput {
  std::uint32_t cell = 0;
  std::uint64_t seed = 0;
};

/// Layer index: the five trace::Category values, then core.
inline constexpr std::size_t kCoreLayer = 5;
inline constexpr std::size_t kLayerCount = 6;
inline constexpr std::array<const char*, kLayerCount> kLayerNames = {
    "transport", "recovery", "http", "browser", "net", "core"};
/// One counter per value trace::EventType's underlying type can hold, so
/// event types added later are counted rather than written out of bounds.
inline constexpr std::size_t kEventTypeCount =
    std::size_t{1} << (8 * sizeof(std::underlying_type_t<trace::EventType>));

/// Host time and event counts attributed per layer.
struct LayerTotals {
  std::array<std::int64_t, kLayerCount> ns{};
  std::array<std::uint64_t, kEventTypeCount> events{};

  [[nodiscard]] std::int64_t attributed_ns() const;
  [[nodiscard]] std::uint64_t events_in(trace::Category category) const;
  [[nodiscard]] std::uint64_t count(trace::EventType type) const {
    return events[static_cast<std::size_t>(type)];
  }
};

class LayerSink final : public trace::TraceSink {
 public:
  void reset() { totals_ = {}; }
  void begin_trial() {
    last_ns_ = now_ns();
    seen_event_ = false;
  }
  void end_trial() { totals_.ns[kCoreLayer] += now_ns() - last_ns_; }
  void on_event(const trace::Event& event) override {
    const std::int64_t t = now_ns();
    const std::size_t layer =
        seen_event_ ? static_cast<std::size_t>(event.category()) : kCoreLayer;
    totals_.ns[layer] += t - last_ns_;
    ++totals_.events[static_cast<std::size_t>(event.type)];
    last_ns_ = t;
    seen_event_ = true;
  }
  [[nodiscard]] const LayerTotals& totals() const noexcept { return totals_; }

 private:
  LayerTotals totals_;
  std::int64_t last_ns_ = 0;
  bool seen_event_ = false;
};

/// What one pass over a trial list measured.
struct Pass {
  std::vector<double> trial_ns;
  std::vector<std::uint64_t> events;        // simulator events per trial
  std::vector<std::uint64_t> page_digests;  // page load only
  std::vector<std::uint64_t> digests;       // page load + cross traffic
  std::uint64_t retransmissions = 0;
  std::uint64_t allocations = 0;
  double wall_ns = 0.0;
  double cpu_s = 0.0;
  LayerTotals layers;  // traced passes only
};

class TrialSet {
 public:
  explicit TrialSet(std::vector<Cell> cells) : cells_(std::move(cells)) {}

  [[nodiscard]] const std::vector<Cell>& cells() const noexcept { return cells_; }
  [[nodiscard]] core::TrialSpec spec(const TrialInput& input) const;

  /// Runs `trials` back to back through `context`; checks byte conservation
  /// on every trial. With a sink, the trials run traced.
  [[nodiscard]] Pass run(core::TrialContext& context, std::span<const TrialInput> trials,
                         Report& report, LayerSink* sink = nullptr) const;

  /// Re-runs the first `count` trials through a fresh core::run_trial and
  /// checks each against the reused-context page digest of `pass`.
  void check_fresh_twins(std::span<const TrialInput> trials, const Pass& pass,
                         std::size_t count, Report& report) const;

  /// Adds the per-cell table (core.us_per_trial / core.events_per_trial /
  /// sim.ns_per_event per group) from untraced passes over `trials`.
  void add_cell_table(std::span<const TrialInput> trials, std::span<const Pass> passes,
                      Report& report) const;
  /// Max/min ratio of per-group ns/event for one pass.
  [[nodiscard]] double ns_per_event_spread(std::span<const TrialInput> trials,
                                           const Pass& pass) const;

 private:
  std::vector<Cell> cells_;
};

/// Adds every per-layer metric from `rounds` of (untraced, traced) passes
/// over the same trial list. Counts come from the first round (they repeat
/// exactly); timings are medians over rounds. Later rounds must reproduce
/// the first round's results.
void add_layer_metrics(const TrialSet& set, std::span<const TrialInput> trials,
                       std::span<const Pass> untraced, std::span<const Pass> traced,
                       Report& report);

/// Digest of a pass's full per-trial digests, in trial order.
[[nodiscard]] std::uint64_t pass_digest(const Pass& pass);

}  // namespace qperc::bench
