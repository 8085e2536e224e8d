// The "on a plane" scenario: how do the five stacks feel on the two
// in-flight WiFi networks (DA2GC and MSS), where the paper finds QUIC's
// design actually improving the long tail of bad experiences?
#include <iostream>

#include "core/video.hpp"
#include "net/profile.hpp"
#include "study/participant.hpp"
#include "study/rater.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace qperc;
  const std::string site = argc > 1 ? argv[1] : "gov.uk";

  core::VideoLibrary library(7, 9);
  Rng rng(77);

  std::cout << "In-flight WiFi QoE for " << site << " (simulated crowd panel of 200)\n\n";
  for (const auto network : {net::NetworkKind::kDa2gc, net::NetworkKind::kMss}) {
    const auto& profile = net::profile_for(network);
    std::cout << profile.name << ": " << profile.downlink.megabits() << " Mbps, "
              << to_millis(profile.min_rtt) << " ms RTT, " << profile.loss_rate * 100
              << "% loss\n";
    TextTable table({"Protocol", "SI", "PLT", "mean rating (10-70)", "verdict"});
    for (const auto& protocol : core::paper_protocols()) {
      const auto& video = library.get(site, protocol.name, network);
      const study::RatingStimulus stimulus = study::rating_stimulus(video);
      double sum = 0.0;
      constexpr int kPanel = 200;
      for (int i = 0; i < kPanel; ++i) {
        auto participant = study::sample_participant(study::Group::kMicroworker, rng);
        sum += study::rate_video(stimulus, study::Context::kPlane, participant, rng);
      }
      const double mean_vote = sum / kPanel;
      const char* verdict = mean_vote >= 50   ? "good"
                            : mean_vote >= 40 ? "fair"
                            : mean_vote >= 30 ? "poor"
                            : mean_vote >= 20 ? "bad"
                                              : "extremely bad";
      table.add_row({protocol.name, fmt_ms(video.metrics.si_ms()),
                     fmt_ms(video.metrics.plt_ms()), fmt_fixed(mean_vote, 1), verdict});
    }
    table.print(std::cout);
    std::cout << "\n";
  }
  std::cout << "Paper takeaway (§4.4): in the challenged in-flight networks QUIC's\n"
               "advanced design yields a more satisfying loading process, hinting at\n"
               "its potential to improve the long tail of bad experiences.\n";
  return 0;
}
