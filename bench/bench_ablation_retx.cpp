// §4.3 retransmission analysis — mean retransmissions per page load for every
// protocol and network, with the TCP+/TCP ratio the paper calls out on DA2GC
// ("on avg. x1.5 but up to x4.8").
#include <algorithm>
#include <iostream>

#include "bench/common.hpp"

int main() {
  using namespace qperc;
  bench::banner("Ablation: retransmissions per page load (paper §4.3)",
                "Paper: on DA2GC, TCP+ retransmits ~1.5x (up to 4.8x) more than stock\n"
                "TCP because the IW32 burst overwhelms the slow lossy link, while QUIC\n"
                "(same IW) copes better thanks to its ACK ranges and streams.");

  bench::CachedLibrary cached;
  cached.produce_all();
  auto& library = cached.get();
  const auto sites = bench::bench_sites(library);

  TextTable table({"Network", "TCP", "TCP+", "TCP+BBR", "QUIC", "QUIC+BBR",
                   "TCP+/TCP ratio", "max site ratio"});
  for (const auto network : bench::all_network_kinds()) {
    std::array<double, 5> means{};
    double ratio_max = 0.0;
    const auto protocols = bench::all_protocol_names();
    for (std::size_t p = 0; p < protocols.size(); ++p) {
      double sum = 0.0;
      for (const auto& site : sites) {
        sum += library.get(site, protocols[p], network).mean_retransmissions;
      }
      means[p] = sum / static_cast<double>(sites.size());
    }
    for (const auto& site : sites) {
      const double stock = library.get(site, "TCP", network).mean_retransmissions;
      const double tuned = library.get(site, "TCP+", network).mean_retransmissions;
      if (stock > 1.0) ratio_max = std::max(ratio_max, tuned / stock);
    }
    table.add_row({std::string(net::to_string(network)), fmt_fixed(means[0], 1),
                   fmt_fixed(means[1], 1), fmt_fixed(means[2], 1), fmt_fixed(means[3], 1),
                   fmt_fixed(means[4], 1),
                   means[0] > 0.5 ? fmt_fixed(means[1] / means[0], 2) : "-",
                   fmt_fixed(ratio_max, 2)});
  }
  table.print(std::cout);
  std::cout << "\nNote: QUIC counts retransmitted packets (frames re-sent in new packet\n"
               "numbers); TCP counts retransmitted segments.\n";
  return 0;
}
