#include "core/video.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>

#include "core/trial_context.hpp"
#include "util/rng.hpp"

namespace qperc::core {

std::uint64_t condition_base_seed(std::uint64_t catalog_seed, std::string_view site,
                                  std::string_view protocol, net::NetworkKind network) {
  const Rng seeder(catalog_seed);
  return seeder.fork(site)
      .fork(protocol)
      .fork(static_cast<std::uint64_t>(network))
      .next_u64();
}

Video produce_video(const web::Website& site, const ProtocolConfig& protocol,
                    const net::NetworkProfile& profile, std::uint32_t runs,
                    std::uint64_t base_seed, net::TransportStats* transport) {
  if (runs == 0) throw std::invalid_argument("produce_video: runs must be at least 1");
  Video video;
  video.site = site.name;
  video.protocol = protocol.name;
  video.network = profile.kind;
  video.runs = runs;

  const Rng seeder(base_seed);
  std::vector<browser::PageLoadResult> results;
  results.reserve(runs);
  TrialContext context;
  for (std::uint32_t run = 0; run < runs; ++run) {
    Rng run_rng = seeder.fork(run + 1);
    results.push_back(context.run(TrialSpec(site, protocol, profile, run_rng.next_u64())));
  }

  // Per-condition means of every metric.
  double sums[browser::kMetricCount] = {};
  double retx_sum = 0.0;
  for (const auto& result : results) {
    for (std::size_t m = 0; m < browser::kMetricCount; ++m) {
      sums[m] += result.metrics.metric_ms(m);
    }
    retx_sum += static_cast<double>(result.transport.retransmissions);
    if (transport != nullptr) *transport += result.transport;
  }
  const auto n = static_cast<double>(results.size());
  video.mean_metrics.first_visual_change = from_seconds(sums[0] / n / 1000.0);
  video.mean_metrics.speed_index = from_seconds(sums[1] / n / 1000.0);
  video.mean_metrics.visual_complete_85 = from_seconds(sums[2] / n / 1000.0);
  video.mean_metrics.last_visual_change = from_seconds(sums[3] / n / 1000.0);
  video.mean_metrics.page_load_time = from_seconds(sums[4] / n / 1000.0);
  video.mean_metrics.finished = true;
  video.mean_retransmissions = retx_sum / n;

  // Typical recording: the trial whose PLT is closest to the mean PLT
  // (inspired by [27], §3).
  const double mean_plt = sums[4] / n;
  std::size_t best = 0;
  double best_distance = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < results.size(); ++i) {
    const double distance = std::fabs(results[i].metrics.plt_ms() - mean_plt);
    if (distance < best_distance) {
      best_distance = distance;
      best = i;
    }
  }
  video.metrics = results[best].metrics;
  video.vc_curve = std::move(results[best].vc_curve);
  return video;
}

VideoLibrary::VideoLibrary(std::uint64_t catalog_seed, std::uint32_t runs,
                           net::LinkConditions conditions)
    : catalog_seed_(catalog_seed),
      runs_(runs),
      conditions_(conditions),
      catalog_(web::study_catalog(catalog_seed)) {}

const Video& VideoLibrary::get(const std::string& site_name,
                               const std::string& protocol_name,
                               net::NetworkKind network) {
  const Key key{site_name, protocol_name, network};
  if (const auto it = cache_.find(key); it != cache_.end()) return it->second;

  const web::Website& site = web::site_by_name(catalog_, site_name);
  const ProtocolConfig& protocol = protocol_by_name(protocol_name);
  net::NetworkProfile profile = net::profile_for(network);
  conditions_.apply(profile);
  const std::uint64_t base_seed =
      condition_base_seed(catalog_seed_, site_name, protocol_name, network);
  return cache_.emplace(key, produce_video(site, protocol, profile, runs_, base_seed))
      .first->second;
}

bool VideoLibrary::insert(Video video) {
  auto key = VideoCodec::key(video);
  return cache_.emplace(std::move(key), std::move(video)).second;
}

namespace {

/// Sanity cap when parsing: no recorded VC curve comes close to this many
/// samples, so a larger count only ever means a corrupt file.
constexpr std::size_t kMaxCurvePoints = 1'000'000;

void write_metrics(std::ostream& os, const browser::PageMetrics& metrics) {
  os << metrics.first_visual_change.count() << ' ' << metrics.speed_index.count() << ' '
     << metrics.visual_complete_85.count() << ' ' << metrics.last_visual_change.count()
     << ' ' << metrics.page_load_time.count();
}

browser::PageMetrics read_metrics(std::istream& is) {
  browser::PageMetrics metrics;
  std::int64_t fvc = 0;
  std::int64_t si = 0;
  std::int64_t vc85 = 0;
  std::int64_t lvc = 0;
  std::int64_t plt = 0;
  is >> fvc >> si >> vc85 >> lvc >> plt;
  metrics.first_visual_change = SimDuration{fvc};
  metrics.speed_index = SimDuration{si};
  metrics.visual_complete_85 = SimDuration{vc85};
  metrics.last_visual_change = SimDuration{lvc};
  metrics.page_load_time = SimDuration{plt};
  metrics.finished = true;
  return metrics;
}

}  // namespace

void VideoCodec::write(std::ostream& os, const Video& video) {
  os.precision(17);
  os << video.site << ' ' << video.protocol << ' ' << static_cast<int>(video.network)
     << ' ' << video.runs << ' ' << video.mean_retransmissions << ' ';
  write_metrics(os, video.metrics);
  os << ' ';
  write_metrics(os, video.mean_metrics);
  os << ' ' << video.vc_curve.size();
  for (const auto& sample : video.vc_curve) {
    os << ' ' << sample.time.count() << ' ' << sample.completeness;
  }
  os << '\n';
}

bool VideoCodec::read(std::istream& is, Video& video) {
  int network = 0;
  std::size_t curve_points = 0;
  is >> video.site >> video.protocol >> network >> video.runs >>
      video.mean_retransmissions;
  if (!is || network < 0 || network > static_cast<int>(net::NetworkKind::kMss)) {
    return false;
  }
  video.network = static_cast<net::NetworkKind>(network);
  video.metrics = read_metrics(is);
  video.mean_metrics = read_metrics(is);
  is >> curve_points;
  if (!is || curve_points > kMaxCurvePoints) return false;
  video.vc_curve.resize(curve_points);
  for (auto& sample : video.vc_curve) {
    std::int64_t time = 0;
    is >> time >> sample.completeness;
    sample.time = SimTime{time};
  }
  return static_cast<bool>(is);
}

}  // namespace qperc::core
