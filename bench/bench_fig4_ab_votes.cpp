// Figure 4 — A/B study vote shares for each protocol pair on each network,
// with the average replay count: do users notice the protocol switch?
#include <iostream>

#include "bench/common.hpp"

int main() {
  using namespace qperc;
  bench::banner("Figure 4: A/B study vote shares per protocol pair and network",
                "Paper: mostly 'no difference' on DSL; decided votes grow as networks\n"
                "slow; QUIC perceived faster than TCP and TCP+; on DA2GC stock TCP\n"
                "beats TCP+ (IW32 early losses) and the flip reverts on MSS (§4.3).");

  bench::CachedLibrary cached;
  cached.produce_all();
  auto& library = cached.get();

  const auto report = bench::run_study(
      library, bench::paper_study(study::StudyKind::kAb, study::Group::kMicroworker));
  const auto cells = bench::group_votes<study::AbAggregate>(
      report.votes, [](const population::VoteRecord& vote) {
        return std::pair{vote.pair_index, vote.video->network};
      });

  std::cout << "uWorker cohort: " << report.accumulator.participants << " -> "
            << report.accumulator.survivors << " after filtering; "
            << fmt_fixed(bench::avg_seconds_per_video(report.votes), 1)
            << " s per video (paper: 14.5 s).\n\n";

  const auto& pairs = study::ab_pairs();
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    std::cout << pairs[p].first << " vs. " << pairs[p].second << "\n";
    TextTable table({"Network", "prefer " + pairs[p].first, "No Diff.",
                     "prefer " + pairs[p].second, "votes", "avg replay count",
                     "avg confidence"});
    for (const auto network : bench::all_network_kinds()) {
      const auto it = cells.find({p, network});
      if (it == cells.end()) continue;
      const auto& cell = it->second;
      table.add_row({std::string(net::to_string(network)),
                     fmt_percent(cell.share_first()),
                     fmt_percent(cell.share_no_difference()),
                     fmt_percent(cell.share_second()), std::to_string(cell.total()),
                     fmt_fixed(cell.avg_replays(), 2),
                     fmt_fixed(cell.total() ? cell.confidence_sum /
                                                  static_cast<double>(cell.total())
                                            : 0.0,
                               2)});
    }
    table.print(std::cout);
    std::cout << "\n";
  }

  // Takeaway checks printed as booleans so regressions are visible at a
  // glance in CI logs.
  const auto cell = [&](std::size_t p, net::NetworkKind network) {
    return cells.at({p, network});
  };
  // "In the DSL setting, for all but the QUIC vs. TCP comparison, most
  // participants do not see a difference" — no-difference is the modal
  // answer for the other three pairs.
  const auto nodiff_modal = [&](std::size_t p) {
    const auto& c = cell(p, net::NetworkKind::kDsl);
    return c.share_no_difference() >= c.share_first() &&
           c.share_no_difference() >= c.share_second();
  };
  const bool dsl_mostly_undecided =
      nodiff_modal(0) && nodiff_modal(2) && nodiff_modal(3);
  const bool quic_beats_tcp_when_decided =
      cell(1, net::NetworkKind::kLte).share_first() >
      cell(1, net::NetworkKind::kLte).share_second();
  const bool quic_beats_tuned_tcp =
      cell(2, net::NetworkKind::kLte).share_first() >
      cell(2, net::NetworkKind::kLte).share_second();
  const bool da2gc_stock_beats_tuned =
      cell(0, net::NetworkKind::kDa2gc).share_second() >
      cell(0, net::NetworkKind::kDa2gc).share_first();
  const bool mss_flip_reverts = cell(0, net::NetworkKind::kMss).share_first() >
                                cell(0, net::NetworkKind::kMss).share_second();
  const bool replays_highest_on_dsl =
      cell(1, net::NetworkKind::kDsl).avg_replays() >
      cell(1, net::NetworkKind::kMss).avg_replays();

  TextTable takeaways({"Takeaway (paper §4.3)", "holds"});
  takeaways.add_row({"DSL: 'no difference' modal for all pairs but QUIC vs TCP",
                     dsl_mostly_undecided ? "yes" : "NO"});
  takeaways.add_row({"QUIC perceived faster than TCP (LTE)",
                     quic_beats_tcp_when_decided ? "yes" : "NO"});
  takeaways.add_row({"QUIC perceived faster than tuned TCP+ (LTE)",
                     quic_beats_tuned_tcp ? "yes" : "NO"});
  takeaways.add_row({"DA2GC: stock TCP preferred over TCP+ (IW32 early loss)",
                     da2gc_stock_beats_tuned ? "yes" : "NO"});
  takeaways.add_row({"MSS: TCP vs TCP+ preference reverts", mss_flip_reverts ? "yes" : "NO"});
  takeaways.add_row({"Replay count highest on fast networks",
                     replays_highest_on_dsl ? "yes" : "NO"});
  takeaways.print(std::cout);
  return 0;
}
