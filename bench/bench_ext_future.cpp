// Extension studies beyond the paper's snapshot:
//  A. Repeat visits — the paper studies fresh-cache 1-RTT QUIC vs 2-RTT
//     TCP and argues 0-RTT is hard to deploy (§3). This bench quantifies
//     the repeat-visit world: QUIC 0-RTT vs TCP with TFO + TLS early-data.
//  B. NewReno — the pre-Cubic baseline, for perspective on how much the
//     congestion controller itself moves the visual metrics.
#include <iostream>

#include "bench/common.hpp"
#include "core/protocol.hpp"
#include "core/trial.hpp"
#include "net/profile.hpp"
#include "study/rater.hpp"
#include "web/website.hpp"

namespace qperc {
namespace {

double mean_si(const web::Website& site, const core::ProtocolConfig& protocol,
               const net::NetworkProfile& profile, std::uint32_t runs) {
  double sum = 0.0;
  for (std::uint32_t seed = 1; seed <= runs; ++seed) {
    sum += core::run_trial(core::TrialSpec(site, protocol, profile, seed * 40'503 + 11))
               .metrics.si_ms();
  }
  return sum / runs;
}

}  // namespace
}  // namespace qperc

int main() {
  using namespace qperc;
  bench::banner("Extension studies: repeat visits (0-RTT), NewReno",
                "Beyond the paper's 2019 snapshot; see DESIGN.md §8.");
  const auto catalog = web::study_catalog(bench::master_seed());
  const std::uint32_t runs = std::max<std::uint32_t>(bench::runs_per_condition() / 3, 5);
  const web::Website* gov = nullptr;
  for (const auto& site : catalog) {
    if (site.name == "gov.uk") gov = &site;
  }

  // A. Repeat visits: 0-RTT on both stacks.
  std::cout << "A) First vs repeat visit (" << gov->name << ", mean SI ms):\n";
  TextTable visit_table({"Network", "TCP+ (2-RTT)", "TCP+ TFO (1-RTT)",
                         "TCP+ 0-RTT", "QUIC (1-RTT)", "QUIC 0-RTT"});
  core::ProtocolConfig tcp2 = core::protocol_by_name("TCP+");
  core::ProtocolConfig tcp1 = tcp2;
  tcp1.name = "TCP+TFO";
  tcp1.tcp_handshake_rtts = 1;
  core::ProtocolConfig tcp0 = tcp2;
  tcp0.name = "TCP+0RTT";
  tcp0.zero_rtt = true;
  core::ProtocolConfig quic1 = core::protocol_by_name("QUIC");
  core::ProtocolConfig quic0 = quic1;
  quic0.name = "QUIC-0RTT";
  quic0.zero_rtt = true;
  for (const auto& profile : {net::dsl_profile(), net::lte_profile()}) {
    visit_table.add_row({profile.name, fmt_fixed(mean_si(*gov, tcp2, profile, runs), 0),
                         fmt_fixed(mean_si(*gov, tcp1, profile, runs), 0),
                         fmt_fixed(mean_si(*gov, tcp0, profile, runs), 0),
                         fmt_fixed(mean_si(*gov, quic1, profile, runs), 0),
                         fmt_fixed(mean_si(*gov, quic0, profile, runs), 0)});
  }
  visit_table.print(std::cout);
  std::cout << "Reading: with cached crypto state both stacks reach 0-RTT and the\n"
               "handshake gap closes — §3's point that today's deployment reality\n"
               "(no idempotency signaling) is what preserves QUIC's edge.\n\n";

  // B. NewReno baseline.
  std::cout << "B) Congestion-controller sweep (TCP+ transport, " << gov->name
            << ", mean SI ms):\n";
  TextTable cc_table({"Network", "NewReno", "Cubic", "BBRv1"});
  for (const auto& profile : net::all_profiles()) {
    std::vector<std::string> row = {profile.name};
    for (const auto kind : {cc::CcKind::kReno, cc::CcKind::kCubic, cc::CcKind::kBbr}) {
      core::ProtocolConfig protocol = core::protocol_by_name("TCP+");
      protocol.congestion_control = kind;
      row.push_back(fmt_fixed(mean_si(*gov, protocol, profile, runs), 0));
    }
    cc_table.add_row(row);
  }
  cc_table.print(std::cout);
  return 0;
}
