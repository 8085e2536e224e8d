// Figure 6 — Pearson correlation between the technical metrics (FVC, SI,
// VC85, LVC, PLT) and the users' mean per-website ratings, per protocol and
// network. For DSL/LTE the free-time votes are used, as in the paper.
#include <cmath>
#include <iostream>
#include <map>

#include "bench/common.hpp"
#include "browser/metrics.hpp"
#include "stats/stats.hpp"

int main() {
  using namespace qperc;
  using study::Context;
  bench::banner("Figure 6: Pearson correlation of technical metrics vs user ratings",
                "Paper: SI correlates best (stronger on slow networks), PLT worst;\n"
                "all coefficients negative (§4.4).");

  bench::CachedLibrary cached;
  cached.produce_all();
  auto& library = cached.get();

  const auto report = bench::run_study(
      library, bench::paper_study(study::StudyKind::kRating, study::Group::kMicroworker));
  const auto votes_by_site =
      bench::group_votes<std::vector<double>>(report.votes, bench::rating_site_key);

  // Mean vote per (site, protocol, network): free-time context for DSL/LTE.
  std::map<std::tuple<std::string, std::string, net::NetworkKind>, std::vector<double>>
      votes;
  for (const auto& [key, site_votes] : votes_by_site) {
    const auto& [site, protocol, network, context] = key;
    const bool fast =
        network == net::NetworkKind::kDsl || network == net::NetworkKind::kLte;
    if (fast && context != Context::kFreeTime) continue;
    auto& sink = votes[{site, protocol, network}];
    sink.insert(sink.end(), site_votes.begin(), site_votes.end());
  }

  // r[protocol][metric][network]
  std::map<std::string, std::array<std::array<double, 4>, browser::kMetricCount>> heatmap;
  const auto networks = bench::all_network_kinds();

  for (const auto& protocol : bench::all_protocol_names()) {
    for (std::size_t n = 0; n < networks.size(); ++n) {
      std::array<std::vector<double>, browser::kMetricCount> metric_values;
      std::vector<double> mean_votes;
      for (const auto& site : bench::bench_sites(library)) {
        const auto it = votes.find({site, protocol, networks[n]});
        if (it == votes.end() || it->second.size() < 3) continue;
        mean_votes.push_back(stats::mean(it->second));
        // Correlate against the metrics of the video actually shown (the
        // typical recording), as the paper derives them from the stimuli.
        const auto& video = library.get(site, protocol, networks[n]);
        for (std::size_t m = 0; m < browser::kMetricCount; ++m) {
          metric_values[m].push_back(video.metrics.metric_ms(m));
        }
      }
      for (std::size_t m = 0; m < browser::kMetricCount; ++m) {
        heatmap[protocol][m][n] = stats::pearson(metric_values[m], mean_votes);
      }
    }
  }

  int si_best = 0;
  int plt_worst = 0;
  int columns = 0;
  int negative = 0;
  int total_cells = 0;

  for (const auto& protocol : bench::all_protocol_names()) {
    std::cout << "== " << protocol << " ==\n";
    TextTable table({"Metric", "DSL", "LTE", "DA2GC", "MSS"});
    // Mark the strongest (most negative) coefficient per network column.
    std::array<std::size_t, 4> best_metric{};
    for (std::size_t n = 0; n < 4; ++n) {
      double best = 1e9;
      for (std::size_t m = 0; m < browser::kMetricCount; ++m) {
        if (heatmap[protocol][m][n] < best) {
          best = heatmap[protocol][m][n];
          best_metric[n] = m;
        }
      }
      ++columns;
      if (best_metric[n] == 1) ++si_best;  // index 1 == SI
      double worst = -1e9;
      std::size_t worst_metric = 0;
      for (std::size_t m = 0; m < browser::kMetricCount; ++m) {
        if (heatmap[protocol][m][n] > worst) {
          worst = heatmap[protocol][m][n];
          worst_metric = m;
        }
      }
      if (worst_metric == 4) ++plt_worst;  // index 4 == PLT
    }
    for (std::size_t m = 0; m < browser::kMetricCount; ++m) {
      std::vector<std::string> row = {browser::metric_name(m)};
      for (std::size_t n = 0; n < 4; ++n) {
        const double r = heatmap[protocol][m][n];
        ++total_cells;
        if (r < 0.0) ++negative;
        std::string cell = fmt_fixed(r, 2);
        if (best_metric[n] == m) cell += " *";
        row.push_back(cell);
      }
      table.add_row(row);
    }
    table.print(std::cout);
    std::cout << "   (* = strongest correlation in that network column)\n\n";
  }

  std::cout << "Summary: SI is the strongest metric in " << si_best << "/" << columns
            << " protocol-network columns; PLT is the weakest in " << plt_worst << "/"
            << columns << "; " << negative << "/" << total_cells
            << " coefficients are negative.\n";

  // SI correlation strength by network (paper: goes up on slower networks).
  TextTable trend({"Network", "mean r(SI) across protocols"});
  for (std::size_t n = 0; n < 4; ++n) {
    double sum = 0.0;
    for (const auto& protocol : bench::all_protocol_names()) {
      sum += heatmap[protocol][1][n];
    }
    trend.add_row({std::string(net::to_string(networks[n])), fmt_fixed(sum / 5.0, 2)});
  }
  std::cout << "\n";
  trend.print(std::cout);
  std::cout << "\nShape check: r(SI) strengthens (more negative) from DSL to the\n"
               "in-flight networks, echoing the paper's heatmap.\n";

  // The paper chose Pearson over Spearman because it probes the *linearity*
  // of a metric against the votes; report both for SI so the choice is
  // visible in the output.
  TextTable spearman_table({"Network", "Pearson r(SI, QUIC)", "Spearman rho(SI, QUIC)"});
  for (std::size_t n = 0; n < networks.size(); ++n) {
    std::vector<double> si_values;
    std::vector<double> vote_values;
    for (const auto& site : bench::bench_sites(library)) {
      const auto it = votes.find({site, "QUIC", networks[n]});
      if (it == votes.end() || it->second.size() < 3) continue;
      vote_values.push_back(stats::mean(it->second));
      si_values.push_back(library.get(site, "QUIC", networks[n]).metrics.si_ms());
    }
    spearman_table.add_row({std::string(net::to_string(networks[n])),
                            fmt_fixed(stats::pearson(si_values, vote_values), 2),
                            fmt_fixed(stats::spearman(si_values, vote_values), 2)});
  }
  std::cout << "\n";
  spearman_table.print(std::cout);
  return 0;
}
