// Figure 5 — rating-study mean votes (99% CIs) per protocol in the three
// usage contexts, plus the §4.4 significance analysis: ANOVA across
// protocols per setting, and the per-website differences at the 90% level.
#include <algorithm>
#include <iostream>
#include <map>

#include "bench/common.hpp"
#include "stats/stats.hpp"

namespace qperc {
namespace {

std::string scale_word(double vote) {
  static const char* words[] = {"extremely bad", "bad",       "poor", "fair",
                                "good",          "excellent", "ideal"};
  const int index = std::clamp(static_cast<int>((vote - 5.0) / 10.0), 0, 6);
  return words[index];
}

}  // namespace
}  // namespace qperc

int main() {
  using namespace qperc;
  using study::Context;
  bench::banner("Figure 5: rating-study votes per protocol and setting (uWorker)",
                "Paper: within a network the protocols are statistically\n"
                "indistinguishable at 99%; at 90% a QUIC(+BBR) tendency appears in\n"
                "the slow settings; the plane context rates poor (§4.4).");

  bench::CachedLibrary cached;
  cached.produce_all();
  auto& library = cached.get();

  const auto report = bench::run_study(
      library, bench::paper_study(study::StudyKind::kRating, study::Group::kMicroworker));
  const auto votes_by_cell = bench::group_votes<std::vector<double>>(
      report.votes, [](const population::VoteRecord& vote) {
        return std::tuple{vote.video->protocol, vote.video->network, vote.context};
      });
  const auto votes_by_site =
      bench::group_votes<std::vector<double>>(report.votes, bench::rating_site_key);

  std::cout << "uWorker cohort: " << report.accumulator.participants << " -> "
            << report.accumulator.survivors << " after filtering; "
            << fmt_fixed(bench::avg_seconds_per_video(report.votes), 1)
            << " s per video (paper: 17.7 s).\n\n";

  const std::vector<std::pair<Context, std::vector<net::NetworkKind>>> blocks = {
      {Context::kWork, {net::NetworkKind::kDsl, net::NetworkKind::kLte}},
      {Context::kFreeTime, {net::NetworkKind::kDsl, net::NetworkKind::kLte}},
      {Context::kPlane, {net::NetworkKind::kDa2gc, net::NetworkKind::kMss}},
  };

  for (const auto& [context, networks] : blocks) {
    std::cout << "== " << study::to_string(context) << " ==\n";
    TextTable table({"Network", "Protocol", "mean vote ± CI99", "scale", "n"});
    for (const auto network : networks) {
      for (const auto& protocol : bench::all_protocol_names()) {
        const auto it = votes_by_cell.find({protocol, network, context});
        if (it == votes_by_cell.end()) continue;
        const auto ci = stats::mean_confidence_interval(it->second, 0.99);
        table.add_row({std::string(net::to_string(network)), protocol,
                       fmt_fixed(ci.center, 1) + " ± " + fmt_fixed(ci.half_width, 1),
                       scale_word(ci.center), std::to_string(it->second.size())});
      }
      table.add_rule();
    }
    table.print(std::cout);
    std::cout << "\n";
  }

  // §4.4: ANOVA across the five protocols within each (network, context).
  std::cout << "Protocol effect per setting (one-way ANOVA across protocols):\n";
  TextTable anova_table({"Setting", "F", "p-value", "sig at 99%", "sig at 90%",
                         "best-rated protocol"});
  for (const auto& [context, networks] : blocks) {
    for (const auto network : networks) {
      std::vector<std::vector<double>> groups;
      std::string best_protocol;
      double best_mean = -1.0;
      for (const auto& protocol : bench::all_protocol_names()) {
        const auto it = votes_by_cell.find({protocol, network, context});
        if (it == votes_by_cell.end()) continue;
        groups.push_back(it->second);
        const double m = stats::mean(it->second);
        if (m > best_mean) {
          best_mean = m;
          best_protocol = protocol;
        }
      }
      const auto anova = stats::one_way_anova(groups);
      anova_table.add_row(
          {std::string(net::to_string(network)) + " / " +
               std::string(study::to_string(context)),
           fmt_fixed(anova.f_statistic, 2), fmt_fixed(anova.p_value, 4),
           anova.significant_at(0.01) ? "YES" : "no",
           anova.significant_at(0.10) ? "YES" : "no", best_protocol});
    }
  }
  anova_table.print(std::cout);

  // Per-website significance at 90%: which sites show protocol differences?
  std::cout << "\nWebsites with significant protocol differences (ANOVA, alpha=0.10):\n";
  TextTable site_table({"Network", "Website", "p-value", "best", "worst", "delta"});
  std::map<std::string, int> best_counter;
  for (const auto network : bench::all_network_kinds()) {
    // Collect per-site votes per protocol, merging the contexts the paper
    // merges (free time for DSL/LTE; plane only has one context).
    std::map<std::string, std::map<std::string, std::vector<double>>> per_site;
    for (const auto& [key, votes] : votes_by_site) {
      const auto& [site, protocol, net_kind, context] = key;
      if (net_kind != network) continue;
      const bool fast = network == net::NetworkKind::kDsl || network == net::NetworkKind::kLte;
      if (fast && context != Context::kFreeTime) continue;
      auto& sink = per_site[site][protocol];
      sink.insert(sink.end(), votes.begin(), votes.end());
    }
    for (const auto& [site, by_protocol] : per_site) {
      std::vector<std::vector<double>> groups;
      std::string best;
      std::string worst;
      double best_mean = -1.0;
      double worst_mean = 1e9;
      for (const auto& [protocol, votes] : by_protocol) {
        if (votes.size() < 4) continue;
        groups.push_back(votes);
        const double m = stats::mean(votes);
        if (m > best_mean) {
          best_mean = m;
          best = protocol;
        }
        if (m < worst_mean) {
          worst_mean = m;
          worst = protocol;
        }
      }
      if (groups.size() < 2) continue;
      const auto anova = stats::one_way_anova(groups);
      if (anova.significant_at(0.10)) {
        site_table.add_row({std::string(net::to_string(network)), site,
                            fmt_fixed(anova.p_value, 4), best, worst,
                            fmt_fixed(best_mean - worst_mean, 1) + " pts"});
        ++best_counter[best];
      }
    }
    site_table.add_rule();
  }
  site_table.print(std::cout);
  std::cout << "\nTally of 'best' protocols among significant sites:";
  for (const auto& [protocol, count] : best_counter) {
    std::cout << "  " << protocol << "=" << count;
  }
  std::cout << "\n\nShape check: few sites are significant; where they are, QUIC\n"
               "variants dominate the 'best' tally (the paper's §4.4 reading).\n";
  return 0;
}
