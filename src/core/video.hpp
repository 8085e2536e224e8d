// "Producing Videos" (§3): visit each site >=31 times per condition, derive
// the technical metrics, and select the recording closest to the mean PLT as
// the "typical" stimulus shown to study participants.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "browser/metrics.hpp"
#include "core/protocol.hpp"
#include "core/trial.hpp"
#include "net/profile.hpp"
#include "net/transport_stats.hpp"
#include "web/website.hpp"

namespace qperc::core {

/// The stimulus for one (site, protocol, network) condition.
struct Video {
  std::string site;
  std::string protocol;
  net::NetworkKind network = net::NetworkKind::kDsl;
  /// Metrics of the selected typical trial (what participants see).
  browser::PageMetrics metrics;
  std::vector<browser::VcSample> vc_curve;
  /// Per-condition means across all recorded trials.
  browser::PageMetrics mean_metrics;
  double mean_retransmissions = 0.0;
  std::uint32_t runs = 0;
};

/// The per-condition trial seed: a pure function of the master seed and the
/// condition's identity — never of thread, shard, or completion order. Both
/// execution paths (VideoLibrary::get and the campaign runner) use this one
/// derivation, which is what makes their results bit-identical.
[[nodiscard]] std::uint64_t condition_base_seed(std::uint64_t catalog_seed,
                                                std::string_view site,
                                                std::string_view protocol,
                                                net::NetworkKind network);

/// Records `runs` trials on one reused TrialContext and picks the typical one
/// (closest-to-mean PLT). Throws std::invalid_argument when `runs` is 0.
/// When `transport` is non-null it receives the sum of the trials'
/// PageLoadResult::transport ledgers (campaign totals).
[[nodiscard]] Video produce_video(const web::Website& site, const ProtocolConfig& protocol,
                                  const net::NetworkProfile& profile, std::uint32_t runs,
                                  std::uint64_t base_seed,
                                  net::TransportStats* transport = nullptr);

/// The (site, protocol, network) key videos are stored and looked up by.
using VideoKey = std::tuple<std::string, std::string, net::NetworkKind>;

/// The record codec of the campaign runner's ResultStore: one
/// whitespace-separated line per Video, in files written by write_records
/// (ARCHITECTURE.md, "Durable files").
struct VideoCodec {
  using Key = VideoKey;
  using Record = Video;
  [[nodiscard]] static Key key(const Video& video) {
    return {video.site, video.protocol, video.network};
  }
  static void write(std::ostream& os, const Video& video);
  [[nodiscard]] static bool read(std::istream& is, Video& video);
};

/// The in-memory map of videos both user studies draw their stimuli from.
/// Stimuli are produced by a campaign (runner::run_campaign) and adopted
/// with runner::adopt_results; get() computes a missing condition itself.
class VideoLibrary {
 public:
  /// `runs` trials per condition (the paper records at least 31). An
  /// optional LinkConditions overlay decorates every condition's profile
  /// (variable-rate downlink trace, token-bucket policer); it is part of
  /// the library's identity, so a campaign store under other conditions is
  /// never adopted.
  VideoLibrary(std::uint64_t catalog_seed, std::uint32_t runs,
               net::LinkConditions conditions = {});

  [[nodiscard]] const std::vector<web::Website>& catalog() const { return catalog_; }
  [[nodiscard]] std::uint64_t catalog_seed() const noexcept { return catalog_seed_; }
  [[nodiscard]] std::uint32_t runs() const noexcept { return runs_; }
  [[nodiscard]] const net::LinkConditions& conditions() const noexcept {
    return conditions_;
  }

  /// Fetches (computing on first use) the video for a condition.
  const Video& get(const std::string& site_name, const std::string& protocol_name,
                   net::NetworkKind network);

  /// Adopts an externally produced video (e.g. from a runner::ResultStore).
  /// Returns false and keeps the existing entry when the condition is
  /// already cached.
  bool insert(Video video);

  [[nodiscard]] std::size_t cached_conditions() const { return cache_.size(); }

 private:
  using Key = VideoKey;

  std::uint64_t catalog_seed_ = 0;
  std::uint32_t runs_ = 0;
  net::LinkConditions conditions_{};
  std::vector<web::Website> catalog_;
  std::map<Key, Video> cache_;
};

}  // namespace qperc::core
