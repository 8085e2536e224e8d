// Exports the simulated study data as CSV files, mirroring the paper's
// public data release (https://study.netray.io): per-condition A/B votes,
// per-condition rating votes, and the technical metrics of every stimulus.
//
//   ./export_study_data [output_dir]
//
// Honours QPERC_RUNS / QPERC_SITES / QPERC_SEED like the benches.
#include <filesystem>
#include <fstream>
#include <iostream>

#include "bench/common.hpp"

int main(int argc, char** argv) {
  using namespace qperc;
  const std::filesystem::path out_dir = argc > 1 ? argv[1] : "study_data";
  std::filesystem::create_directories(out_dir);

  bench::CachedLibrary cached;
  cached.produce_all();
  auto& library = cached.get();

  // Stimulus metrics.
  {
    std::ofstream out(out_dir / "videos.csv");
    out << "site,protocol,network,runs,fvc_ms,si_ms,vc85_ms,lvc_ms,plt_ms,"
           "mean_fvc_ms,mean_si_ms,mean_vc85_ms,mean_lvc_ms,mean_plt_ms,"
           "mean_retransmissions\n";
    for (const auto& site : bench::bench_sites(library)) {
      for (const auto& protocol : bench::all_protocol_names()) {
        for (const auto network : bench::all_network_kinds()) {
          const auto& video = library.get(site, protocol, network);
          out << site << ',' << protocol << ',' << net::to_string(network) << ','
              << video.runs;
          for (std::size_t m = 0; m < browser::kMetricCount; ++m) {
            out << ',' << video.metrics.metric_ms(m);
          }
          for (std::size_t m = 0; m < browser::kMetricCount; ++m) {
            out << ',' << video.mean_metrics.metric_ms(m);
          }
          out << ',' << video.mean_retransmissions << '\n';
        }
      }
    }
    std::cout << "wrote " << (out_dir / "videos.csv").string() << "\n";
  }

  // A/B study votes, per (pair, network, site).
  {
    const auto report = bench::run_study(
        library, bench::paper_study(study::StudyKind::kAb, study::Group::kMicroworker));
    const auto by_site = bench::group_votes<study::AbAggregate>(
        report.votes, [](const population::VoteRecord& vote) {
          return std::tuple{vote.pair_index, vote.video->network, vote.video->site};
        });
    std::ofstream out(out_dir / "ab_votes.csv");
    out << "protocol_a,protocol_b,network,site,prefer_a,no_difference,prefer_b,"
           "avg_replays,avg_confidence\n";
    for (const auto& [key, cell] : by_site) {
      const auto& [pair_index, network, site] = key;
      const auto& [proto_a, proto_b] = study::ab_pairs()[pair_index];
      out << proto_a << ',' << proto_b << ',' << net::to_string(network) << ',' << site
          << ',' << cell.prefer_first << ',' << cell.no_difference << ','
          << cell.prefer_second << ',' << cell.avg_replays() << ','
          << (cell.total() ? cell.confidence_sum / static_cast<double>(cell.total()) : 0.0)
          << '\n';
    }
    std::cout << "wrote " << (out_dir / "ab_votes.csv").string() << " ("
              << by_site.size() << " conditions, funnel " << report.accumulator.participants
              << "->" << report.accumulator.survivors << ")\n";
  }

  // Rating study votes, one row per vote.
  {
    const auto report = bench::run_study(
        library, bench::paper_study(study::StudyKind::kRating, study::Group::kMicroworker));
    std::ofstream out(out_dir / "rating_votes.csv");
    out << "site,protocol,network,context,vote\n";
    std::size_t rows = 0;
    for (const auto& [key, votes] :
         bench::group_votes<std::vector<double>>(report.votes, bench::rating_site_key)) {
      const auto& [site, protocol, network, context] = key;
      for (const double vote : votes) {
        out << site << ',' << protocol << ',' << net::to_string(network) << ','
            << study::to_string(context) << ',' << vote << '\n';
        ++rows;
      }
    }
    std::cout << "wrote " << (out_dir / "rating_votes.csv").string() << " (" << rows
              << " votes, funnel " << report.accumulator.participants << "->"
              << report.accumulator.survivors << ")\n";
  }
  return 0;
}
