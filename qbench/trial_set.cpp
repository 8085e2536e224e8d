#include "trial_set.hpp"

#include <algorithm>
#include <iostream>
#include <map>

#include "core/trial.hpp"

namespace qperc::bench {

std::string cell_group(const core::ProtocolConfig& protocol, net::NetworkKind network) {
  std::string group = protocol.name + "." + std::string(net::to_string(network));
  std::replace(group.begin(), group.end(), '+', '-');
  return group;
}

std::int64_t LayerTotals::attributed_ns() const {
  std::int64_t sum = 0;
  for (const std::int64_t ns_in_layer : ns) sum += ns_in_layer;
  return sum;
}

std::uint64_t LayerTotals::events_in(trace::Category category) const {
  std::uint64_t sum = 0;
  for (std::size_t type = 0; type < kEventTypeCount; ++type) {
    if (trace::category_of(static_cast<trace::EventType>(type)) == category) {
      sum += events[type];
    }
  }
  return sum;
}

core::TrialSpec TrialSet::spec(const TrialInput& input) const {
  const Cell& cell = cells_[input.cell];
  return core::TrialSpec(*cell.site, *cell.protocol, cell.profile, input.seed)
      .with_contention(cell.contention);
}

Pass TrialSet::run(core::TrialContext& context, std::span<const TrialInput> trials,
                   Report& report, LayerSink* sink) const {
  Pass pass;
  pass.trial_ns.reserve(trials.size());
  pass.events.reserve(trials.size());
  pass.page_digests.reserve(trials.size());
  pass.digests.reserve(trials.size());
  if (sink != nullptr) sink->reset();
  core::ContentionOutcome contention;

  const double cpu_start = process_cpu_s();
  const std::uint64_t allocations_start = heap_allocations_so_far();
  const std::int64_t pass_start = now_ns();
  for (const TrialInput& input : trials) {
    const Cell& cell = cells_[input.cell];
    const bool contended = cell.contention.enabled();
    const std::int64_t start = now_ns();
    if (sink != nullptr) sink->begin_trial();
    const browser::PageLoadResult result =
        context.run(sink != nullptr ? spec(input).with_trace(sink) : spec(input),
                    contended ? &contention : nullptr);
    if (sink != nullptr) sink->end_trial();
    pass.trial_ns.push_back(static_cast<double>(now_ns() - start));

    pass.events.push_back(context.simulator().events_processed());
    pass.retransmissions += result.transport.retransmissions;
    pass.page_digests.push_back(digest_of(result));
    pass.digests.push_back(contended ? digest_of(result, contention)
                                     : pass.page_digests.back());
    report.check(bytes_conserved(*cell.site, result),
                 "byte conservation, " + cell.site->name + " " + cell.group);
  }
  pass.wall_ns = static_cast<double>(now_ns() - pass_start);
  pass.allocations = heap_allocations_so_far() - allocations_start;
  pass.cpu_s = process_cpu_s() - cpu_start;
  if (sink != nullptr) pass.layers = sink->totals();
  return pass;
}

void TrialSet::check_fresh_twins(std::span<const TrialInput> trials, const Pass& pass,
                                 std::size_t count, Report& report) const {
  count = std::min(count, trials.size());
  for (std::size_t i = 0; i < count; ++i) {
    const Cell& cell = cells_[trials[i].cell];
    report.check(digest_of(core::run_trial(spec(trials[i]))) == pass.page_digests[i],
                 "fresh run_trial matches reused TrialContext, " + cell.site->name + " " +
                     cell.group);
  }
}

namespace {

struct GroupCost {
  double ns = 0.0;
  std::uint64_t events = 0;
  std::size_t trials = 0;
};

/// Per-group sums over passes, in first-appearance order of the groups.
std::vector<std::pair<std::string, GroupCost>> group_costs(
    const std::vector<Cell>& cells, std::span<const TrialInput> trials,
    std::span<const Pass> passes) {
  std::vector<std::pair<std::string, GroupCost>> groups;
  std::map<std::string, std::size_t> index;
  for (const Pass& pass : passes) {
    for (std::size_t i = 0; i < trials.size() && i < pass.trial_ns.size(); ++i) {
      const std::string& group = cells[trials[i].cell].group;
      auto [it, inserted] = index.try_emplace(group, groups.size());
      if (inserted) groups.emplace_back(group, GroupCost{});
      GroupCost& cost = groups[it->second].second;
      cost.ns += pass.trial_ns[i];
      cost.events += pass.events[i];
      ++cost.trials;
    }
  }
  return groups;
}

}  // namespace

void TrialSet::add_cell_table(std::span<const TrialInput> trials, std::span<const Pass> passes,
                              Report& report) const {
  for (const auto& [group, cost] : group_costs(cells_, trials, passes)) {
    const auto n = static_cast<double>(cost.trials);
    report.add("core.us_per_trial." + group, cost.ns / n / 1e3, "us", cost.trials);
    report.add("core.events_per_trial." + group, static_cast<double>(cost.events) / n,
               "count", cost.trials);
    report.add("sim.ns_per_event." + group, cost.ns / static_cast<double>(cost.events), "ns",
               cost.trials);
  }
}

double TrialSet::ns_per_event_spread(std::span<const TrialInput> trials,
                                     const Pass& pass) const {
  double lo = 0.0;
  double hi = 0.0;
  for (const auto& [group, cost] : group_costs(cells_, trials, std::span(&pass, 1))) {
    const double ns_per_event = cost.ns / static_cast<double>(cost.events);
    lo = lo == 0.0 ? ns_per_event : std::min(lo, ns_per_event);
    hi = std::max(hi, ns_per_event);
  }
  return lo > 0.0 ? hi / lo : 0.0;
}

std::uint64_t pass_digest(const Pass& pass) {
  Digest d;
  for (const std::uint64_t digest : pass.digests) d.add(digest);
  return d.value();
}

void add_layer_metrics(const TrialSet& set, std::span<const TrialInput> trials,
                       std::span<const Pass> untraced, std::span<const Pass> traced,
                       Report& report) {
  const Pass& u0 = untraced.front();
  const Pass& t0 = traced.front();
  const auto n = static_cast<double>(trials.size());
  const std::size_t rounds = traced.size();

  for (std::size_t r = 1; r < untraced.size(); ++r) {
    report.check(untraced[r].digests == u0.digests,
                 "untraced round " + std::to_string(r) + " reproduces round 0");
  }
  for (std::size_t r = 1; r < traced.size(); ++r) {
    report.check(traced[r].digests == t0.digests,
                 "traced round " + std::to_string(r) + " reproduces round 0");
  }

  // Exact counts (round 0).
  std::uint64_t sim_events = 0;
  for (const std::uint64_t events : u0.events) sim_events += events;
  report.add("sim.events_per_trial", static_cast<double>(sim_events) / n, "count",
             trials.size());
  report.add("recovery.retransmissions_per_trial",
             static_cast<double>(u0.retransmissions) / n, "count", trials.size());
  report.add("net.queue_drops_per_trial",
             static_cast<double>(t0.layers.count(trace::EventType::kLinkDroppedQueueFull)) /
                 n,
             "count", trials.size());
  for (std::size_t layer = 0; layer < kCoreLayer; ++layer) {
    report.add(std::string(kLayerNames[layer]) + ".events_per_trial",
               static_cast<double>(
                   t0.layers.events_in(static_cast<trace::Category>(layer))) /
                   n,
               "count", trials.size());
  }
  std::size_t divergent = 0;
  for (std::size_t i = 0; i < trials.size(); ++i) {
    if (t0.digests[i] != u0.digests[i]) ++divergent;
  }
  report.add("trace.divergent_share", static_cast<double>(divergent) / n, "ratio",
             trials.size());

  // Timings: median over rounds.
  const auto per_round = [&](auto&& fn) {
    std::vector<double> values;
    for (std::size_t r = 0; r < rounds; ++r) values.push_back(fn(untraced[r], traced[r]));
    return median(std::move(values));
  };
  const auto sum = [](const std::vector<double>& v) {
    double total = 0.0;
    for (const double x : v) total += x;
    return total;
  };
  report.add("sim.ns_per_event", per_round([&](const Pass& u, const Pass&) {
               return sum(u.trial_ns) / static_cast<double>(sim_events);
             }),
             "ns", rounds);
  report.add("sim.ns_per_event_spread", per_round([&](const Pass& u, const Pass&) {
               return set.ns_per_event_spread(trials, u);
             }),
             "ratio", rounds);
  for (std::size_t layer = 0; layer < kLayerCount; ++layer) {
    report.add(std::string(kLayerNames[layer]) + ".self_share",
               per_round([&](const Pass&, const Pass& t) {
                 return static_cast<double>(t.layers.ns[layer]) /
                        static_cast<double>(t.layers.attributed_ns());
               }),
               "ratio", rounds);
  }
  const auto layer_ns = [](const Pass& t, trace::Category category) {
    return static_cast<double>(t.layers.ns[static_cast<std::size_t>(category)]);
  };
  report.add("recovery.ns_per_ack", per_round([&](const Pass&, const Pass& t) {
               // One metrics_updated event per ACK a sender processes.
               return layer_ns(t, trace::Category::kRecovery) /
                      static_cast<double>(t.layers.count(trace::EventType::kMetricsUpdated));
             }),
             "ns", rounds);
  report.add("net.ns_per_packet", per_round([&](const Pass&, const Pass& t) {
               // Every packet offered to a link is either enqueued or dropped
               // at the tail of the queue.
               return layer_ns(t, trace::Category::kNet) /
                      static_cast<double>(
                          t.layers.count(trace::EventType::kLinkEnqueued) +
                          t.layers.count(trace::EventType::kLinkDroppedQueueFull));
             }),
             "ns", rounds);
  report.add("trace.overhead_pct", per_round([](const Pass& u, const Pass& t) {
               return (t.wall_ns - u.wall_ns) / u.wall_ns * 100.0;
             }),
             "%", rounds);
  const double attributed = per_round([](const Pass&, const Pass& t) {
    return static_cast<double>(t.layers.attributed_ns()) / t.wall_ns;
  });
  report.add("trace.attributed_share", attributed, "ratio", rounds);
  if (attributed < 0.95) {
    std::cerr << "qperc_bench: warning: trace.attributed_share " << attributed
              << " is below 0.95\n";
  }
}

}  // namespace qperc::bench
