// Side-by-side "A/B video": renders the visual-completeness curves of two
// protocol stacks as ASCII progress strips — the terminal analogue of the
// paired stimulus the paper's Study 1 shows its participants (Figure 1).
//
//   ./page_load_race [site] [network] [protocolA] [protocolB]
//   e.g. ./page_load_race etsy.com LTE QUIC TCP+
#include <algorithm>
#include <iostream>
#include <string>

#include "core/video.hpp"
#include "net/profile.hpp"
#include "study/participant.hpp"
#include "study/rater.hpp"
#include "util/rng.hpp"

namespace {

double completeness_at(const std::vector<qperc::browser::VcSample>& curve,
                       qperc::SimTime t) {
  double value = 0.0;
  for (const auto& sample : curve) {
    if (sample.time <= t) value = sample.completeness;
  }
  return value;
}

std::string strip(double completeness, int width = 40) {
  const int filled = static_cast<int>(completeness * width + 0.5);
  std::string bar(static_cast<std::size_t>(width), '.');
  std::fill_n(bar.begin(), std::clamp(filled, 0, width), '#');
  return bar;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace qperc;
  const std::string site = argc > 1 ? argv[1] : "etsy.com";
  const std::string network_name = argc > 2 ? argv[2] : "LTE";
  const std::string proto_a = argc > 3 ? argv[3] : "QUIC";
  const std::string proto_b = argc > 4 ? argv[4] : "TCP+";

  net::NetworkKind network = net::NetworkKind::kLte;
  for (const auto& profile : net::all_profiles()) {
    if (profile.name == network_name) network = profile.kind;
  }

  // Produce the two "videos" exactly like the study harness (the typical
  // recording out of several seeded trials).
  core::VideoLibrary library(7, 9);
  const auto& video_a = library.get(site, proto_a, network);
  const auto& video_b = library.get(site, proto_b, network);

  const SimDuration end = std::max(video_a.metrics.last_visual_change,
                                   video_b.metrics.last_visual_change);
  const SimDuration step = std::max<SimDuration>(end / 18, milliseconds(20));

  std::cout << site << " on " << network_name << " — " << proto_a << " (left) vs. "
            << proto_b << " (right)\n\n";
  std::cout << "      t | " << proto_a << std::string(42 - proto_a.size(), ' ') << "| "
            << proto_b << "\n";
  for (SimDuration t{0}; t <= end + step; t += step) {
    const double a = completeness_at(video_a.vc_curve, SimTime(t));
    const double b = completeness_at(video_b.vc_curve, SimTime(t));
    std::printf("%6.0fms | %s | %s\n", to_millis(t), strip(a).c_str(), strip(b).c_str());
  }

  std::cout << "\nMetrics (typical recording):\n";
  std::printf("  %-9s SI=%7.0fms FVC=%7.0fms PLT=%7.0fms\n", proto_a.c_str(),
              video_a.metrics.si_ms(), video_a.metrics.fvc_ms(), video_a.metrics.plt_ms());
  std::printf("  %-9s SI=%7.0fms FVC=%7.0fms PLT=%7.0fms\n", proto_b.c_str(),
              video_b.metrics.si_ms(), video_b.metrics.fvc_ms(), video_b.metrics.plt_ms());

  // Ask a small panel of simulated participants the study question.
  Rng rng(123);
  const study::PairStimulus pair = study::pair_stimulus(video_a, video_b);
  int first = 0;
  int second = 0;
  int neither = 0;
  for (int i = 0; i < 100; ++i) {
    const auto participant = study::sample_participant(study::Group::kMicroworker, rng);
    const auto vote = study::ab_vote(pair, participant, rng);
    first += vote.choice == study::AbChoice::kFirst;
    second += vote.choice == study::AbChoice::kSecond;
    neither += vote.choice == study::AbChoice::kNoDifference;
  }
  std::cout << "\n100 simulated crowd raters: " << first << "x '" << proto_a
            << " faster', " << neither << "x 'no difference', " << second << "x '"
            << proto_b << " faster'\n";
  return 0;
}
