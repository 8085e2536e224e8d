// Core tests: Table-1 protocol configs, trial determinism, video selection.
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/protocol.hpp"
#include "core/video.hpp"
#include "net/profile.hpp"
#include "util/durable_file.hpp"
#include "web/website.hpp"

namespace qperc::core {
namespace {

TEST(Protocols, Table1Rows) {
  const auto& protocols = paper_protocols();
  ASSERT_EQ(protocols.size(), 5u);

  const auto& tcp = protocols[0];
  EXPECT_EQ(tcp.name, "TCP");
  EXPECT_EQ(tcp.transport, Transport::kTcp);
  EXPECT_EQ(tcp.initial_window_segments, 10u);
  EXPECT_FALSE(tcp.pacing);
  EXPECT_FALSE(tcp.tuned_buffers);
  EXPECT_TRUE(tcp.slow_start_after_idle);
  EXPECT_EQ(tcp.congestion_control, cc::CcKind::kCubic);

  const auto& tcp_plus = protocols[1];
  EXPECT_EQ(tcp_plus.name, "TCP+");
  EXPECT_EQ(tcp_plus.initial_window_segments, 32u);
  EXPECT_TRUE(tcp_plus.pacing);
  EXPECT_TRUE(tcp_plus.tuned_buffers);
  EXPECT_FALSE(tcp_plus.slow_start_after_idle);

  EXPECT_EQ(protocols[2].name, "TCP+BBR");
  EXPECT_EQ(protocols[2].congestion_control, cc::CcKind::kBbr);

  const auto& quic = protocols[3];
  EXPECT_EQ(quic.name, "QUIC");
  EXPECT_EQ(quic.transport, Transport::kQuic);
  EXPECT_EQ(quic.initial_window_segments, 32u);
  EXPECT_TRUE(quic.pacing);
  EXPECT_EQ(quic.congestion_control, cc::CcKind::kCubic);

  EXPECT_EQ(protocols[4].name, "QUIC+BBR");
  EXPECT_EQ(protocols[4].congestion_control, cc::CcKind::kBbr);
}

TEST(Protocols, LookupByName) {
  EXPECT_EQ(protocol_by_name("QUIC+BBR").congestion_control, cc::CcKind::kBbr);
  EXPECT_THROW(static_cast<void>(protocol_by_name("SCTP")), std::invalid_argument);
}

TEST(Protocols, ConfigConversion) {
  const auto& tcp_plus = protocol_by_name("TCP+");
  const auto tcp_config = tcp_plus.tcp_config();
  EXPECT_EQ(tcp_config.initial_window_segments, 32u);
  EXPECT_TRUE(tcp_config.pacing);
  EXPECT_TRUE(tcp_config.tuned_buffers);
  EXPECT_FALSE(tcp_config.slow_start_after_idle);
  EXPECT_EQ(tcp_config.handshake_rtts, 2u);

  const auto& quic = protocol_by_name("QUIC");
  const auto quic_config = quic.quic_config();
  EXPECT_EQ(quic_config.initial_window_segments, 32u);
  EXPECT_FALSE(quic_config.zero_rtt);
}

TEST(Video, TypicalTrialIsClosestToMeanPlt) {
  const auto catalog = web::study_catalog(7);
  const auto& site = catalog[6];
  const auto video = produce_video(site, protocol_by_name("QUIC"), net::lte_profile(),
                                   /*runs=*/9, /*base_seed=*/123);
  EXPECT_EQ(video.runs, 9u);
  // The selected trial's PLT must lie within the spread around the mean —
  // verify it is close to the per-condition mean PLT.
  EXPECT_TRUE(video.metrics.finished);
  EXPECT_LT(std::fabs(video.metrics.plt_ms() - video.mean_metrics.plt_ms()),
            video.mean_metrics.plt_ms() * 0.5);
  EXPECT_FALSE(video.vc_curve.empty());
}

TEST(Video, DeterministicForSameInputs) {
  const auto catalog = web::study_catalog(7);
  const auto& site = catalog[0];
  const auto a =
      produce_video(site, protocol_by_name("TCP"), net::dsl_profile(), 5, 99);
  const auto b =
      produce_video(site, protocol_by_name("TCP"), net::dsl_profile(), 5, 99);
  EXPECT_DOUBLE_EQ(a.metrics.si_ms(), b.metrics.si_ms());
  EXPECT_DOUBLE_EQ(a.mean_metrics.plt_ms(), b.mean_metrics.plt_ms());
  // Zero runs leave no typical trial to pick.
  EXPECT_THROW(
      static_cast<void>(produce_video(site, protocol_by_name("TCP"), net::dsl_profile(), 0, 99)),
      std::invalid_argument);
}

TEST(VideoLibrary, CachesAndIsConsistent) {
  VideoLibrary library(7, 3);
  EXPECT_EQ(library.catalog().size(), 36u);
  const auto& first = library.get("gov.uk", "QUIC", net::NetworkKind::kDsl);
  const auto& second = library.get("gov.uk", "QUIC", net::NetworkKind::kDsl);
  EXPECT_EQ(&first, &second);  // cached object, not recomputed
  EXPECT_EQ(first.site, "gov.uk");
  EXPECT_EQ(first.protocol, "QUIC");
}

TEST(VideoLibrary, PrecomputeMatchesLazyCompute) {
  VideoLibrary lazy(7, 3);
  VideoLibrary eager(7, 3);
  eager.precompute({"gov.uk"}, {"TCP", "QUIC"}, {net::NetworkKind::kLte});
  EXPECT_DOUBLE_EQ(lazy.get("gov.uk", "TCP", net::NetworkKind::kLte).metrics.si_ms(),
                   eager.get("gov.uk", "TCP", net::NetworkKind::kLte).metrics.si_ms());
  EXPECT_DOUBLE_EQ(lazy.get("gov.uk", "QUIC", net::NetworkKind::kLte).metrics.si_ms(),
                   eager.get("gov.uk", "QUIC", net::NetworkKind::kLte).metrics.si_ms());
}

TEST(VideoLibrary, UnknownSiteThrows) {
  VideoLibrary library(7, 2);
  EXPECT_THROW(static_cast<void>(library.site_by_name("not-a-site.test")), std::invalid_argument);
}

TEST(VideoLibrary, CacheRoundTrips) {
  const std::string path = "/tmp/qperc_test_cache_roundtrip.cache";
  VideoLibrary writer(7, 2);
  const auto& original = writer.get("gov.uk", "QUIC", net::NetworkKind::kDsl);
  writer.save_cache(path);

  VideoLibrary reader(7, 2);
  ASSERT_TRUE(reader.load_cache(path));
  EXPECT_EQ(reader.cached_conditions(), 1u);
  const auto& loaded = reader.get("gov.uk", "QUIC", net::NetworkKind::kDsl);
  EXPECT_EQ(loaded.site, original.site);
  EXPECT_EQ(loaded.protocol, original.protocol);
  EXPECT_EQ(loaded.runs, original.runs);
  EXPECT_DOUBLE_EQ(loaded.metrics.si_ms(), original.metrics.si_ms());
  EXPECT_DOUBLE_EQ(loaded.mean_metrics.plt_ms(), original.mean_metrics.plt_ms());
  EXPECT_DOUBLE_EQ(loaded.mean_retransmissions, original.mean_retransmissions);
  ASSERT_EQ(loaded.vc_curve.size(), original.vc_curve.size());
  for (std::size_t i = 0; i < loaded.vc_curve.size(); ++i) {
    EXPECT_EQ(loaded.vc_curve[i].time, original.vc_curve[i].time);
    EXPECT_DOUBLE_EQ(loaded.vc_curve[i].completeness, original.vc_curve[i].completeness);
  }
  std::remove(path.c_str());
}

TEST(VideoLibrary, CacheRejectsMismatchedParameters) {
  const std::string path = "/tmp/qperc_test_cache_mismatch.cache";
  VideoLibrary writer(7, 2);
  (void)writer.get("gov.uk", "TCP", net::NetworkKind::kDsl);
  writer.save_cache(path);

  VideoLibrary other_runs(7, 3);
  EXPECT_FALSE(other_runs.load_cache(path));
  VideoLibrary other_seed(8, 2);
  EXPECT_FALSE(other_seed.load_cache(path));
  VideoLibrary missing(7, 2);
  EXPECT_FALSE(missing.load_cache("/tmp/does_not_exist.qperc"));
  std::remove(path.c_str());
}

TEST(VideoLibrary, CorruptOrTruncatedCacheLeavesLibraryUntouched) {
  const std::string path = "/tmp/qperc_test_cache_corrupt.cache";
  VideoLibrary writer(7, 2);
  (void)writer.get("gov.uk", "QUIC", net::NetworkKind::kDsl);
  (void)writer.get("gov.uk", "TCP", net::NetworkKind::kLte);
  writer.save_cache(path);

  std::string good;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    good = buffer.str();
  }
  ASSERT_FALSE(good.empty());

  // Truncate mid-record: load_cache must fail WITHOUT leaving the partial
  // prefix in the cache (the old implementation kept whatever parsed).
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << good.substr(0, good.size() / 2);
  }
  VideoLibrary truncated_reader(7, 2);
  (void)truncated_reader.get("wikipedia.org", "QUIC", net::NetworkKind::kDsl);
  EXPECT_FALSE(truncated_reader.load_cache(path));
  EXPECT_EQ(truncated_reader.cached_conditions(), 1u);  // only the precomputed one

  // Change one digit of the first record to another digit: the record still
  // parses, so only the checksum can catch it.
  std::string corrupt = good;
  const auto payload = corrupt.find('\n') + 1;
  const auto digit = corrupt.find('\n', payload) - 1;  // last VC sample value
  ASSERT_TRUE(std::isdigit(static_cast<unsigned char>(corrupt[digit])));
  corrupt[digit] = corrupt[digit] == '9' ? '8' : '9';
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << corrupt;
  }
  VideoLibrary corrupt_reader(7, 2);
  EXPECT_FALSE(corrupt_reader.load_cache(path));
  EXPECT_EQ(corrupt_reader.cached_conditions(), 0u);

  // The same condition twice, under a valid checksum and a matching count.
  writer.save_cache(path);
  const auto saved = read_durable(path, "qperc-video-cache-v3");
  ASSERT_TRUE(saved.has_value());
  const std::string first_record = saved->payload.substr(0, saved->payload.find('\n') + 1);
  write_durable(path, saved->header, first_record + first_record);
  VideoLibrary duplicate_reader(7, 2);
  EXPECT_FALSE(duplicate_reader.load_cache(path));
  EXPECT_EQ(duplicate_reader.cached_conditions(), 0u);
  std::remove(path.c_str());
}

TEST(VideoLibrary, SaveCacheIsAtomic) {
  const std::string path = "/tmp/qperc_test_cache_atomic.cache";
  VideoLibrary writer(7, 2);
  (void)writer.get("gov.uk", "QUIC", net::NetworkKind::kDsl);
  writer.save_cache(path);
  // The temp file used for the atomic rename never survives.
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  VideoLibrary reader(7, 2);
  EXPECT_TRUE(reader.load_cache(path));
  std::remove(path.c_str());

  // A write that cannot happen throws instead of returning silently.
  const auto missing_dir = std::filesystem::temp_directory_path() / "qperc_no_such_cache_dir";
  std::filesystem::remove_all(missing_dir);
  EXPECT_THROW(writer.save_cache((missing_dir / "videos.qvc").string()), std::runtime_error);
  EXPECT_FALSE(std::filesystem::exists(missing_dir));
}

TEST(VideoLibrary, PrecomputeReportsFailureAfterCachingTheRest) {
  VideoLibrary library(7, 2);
  // The old thread loop called std::terminate on a throwing condition;
  // now the good conditions are cached and the failure surfaces as an
  // exception after the batch completes.
  EXPECT_THROW(library.precompute({"gov.uk", "not-a-site.test"}, {"QUIC"},
                                  {net::NetworkKind::kDsl}),
               std::invalid_argument);
  EXPECT_EQ(library.cached_conditions(), 1u);
  EXPECT_EQ(library.get("gov.uk", "QUIC", net::NetworkKind::kDsl).site, "gov.uk");
}

TEST(Video, ConditionBaseSeedIsStableAndDistinct) {
  const auto seed = condition_base_seed(7, "gov.uk", "QUIC", net::NetworkKind::kDsl);
  EXPECT_EQ(seed, condition_base_seed(7, "gov.uk", "QUIC", net::NetworkKind::kDsl));
  EXPECT_NE(seed, condition_base_seed(8, "gov.uk", "QUIC", net::NetworkKind::kDsl));
  EXPECT_NE(seed, condition_base_seed(7, "gov.uk", "TCP", net::NetworkKind::kDsl));
  EXPECT_NE(seed, condition_base_seed(7, "gov.uk", "QUIC", net::NetworkKind::kLte));
}

TEST(TrialSpec, RejectsMissingSiteOrProtocol) {
  const auto catalog = web::study_catalog(7);
  TrialSpec no_site;
  no_site.protocol = &protocol_by_name("TCP");
  no_site.profile = net::dsl_profile();
  EXPECT_THROW(static_cast<void>(run_trial(no_site)), std::invalid_argument);

  TrialSpec no_protocol;
  no_protocol.site = &catalog[0];
  no_protocol.profile = net::dsl_profile();
  EXPECT_THROW(static_cast<void>(run_trial(no_protocol)), std::invalid_argument);
}

TEST(TrialSpec, MaxEventsCapsTheTrial) {
  const auto catalog = web::study_catalog(7);
  const auto& site = catalog[0];
  const auto full =
      run_trial(TrialSpec(site, protocol_by_name("QUIC"), net::lte_profile(), 42));
  ASSERT_TRUE(full.metrics.finished);
  EXPECT_EQ(full.stop, browser::StopReason::kFinished);
  // A budget far below the ~hundreds of thousands of events a page load
  // needs must stop the trial early (and not hang or throw).
  const auto capped = run_trial(TrialSpec(site, protocol_by_name("QUIC"), net::lte_profile(), 42)
                                    .with_max_events(500));
  EXPECT_FALSE(capped.metrics.finished);
  EXPECT_EQ(capped.stop, browser::StopReason::kEventBudget);
  // A virtual-time cap shorter than the load stops it on the clock, and the
  // partial PLT is the cap itself.
  const auto timed = run_trial(TrialSpec(site, protocol_by_name("QUIC"), net::lte_profile(), 42)
                                   .with_time_cap(milliseconds(50)));
  EXPECT_FALSE(timed.metrics.finished);
  EXPECT_EQ(timed.stop, browser::StopReason::kTimeCap);
  EXPECT_EQ(timed.metrics.page_load_time, milliseconds(50));
}

TEST(TrialSpec, ExplicitlyDisabledContentionMatchesDefault) {
  // TrialSpec is the single construction path now that the deprecated
  // run_trial shims are gone; an explicit flows=0 contention config must be
  // indistinguishable from the default spec (zero extra RNG draws).
  const auto catalog = web::study_catalog(7);
  const auto& site = catalog[2];
  const auto& protocol = protocol_by_name("TCP+");
  const auto profile = net::lte_profile();
  const auto by_default = run_trial(TrialSpec(site, protocol, profile, 77));
  net::ContentionConfig disabled;
  disabled.flows = 0;
  disabled.mix = net::CrossMix::kMixed;  // ignored while flows == 0
  const auto explicit_off =
      run_trial(TrialSpec(site, protocol, profile, 77).with_contention(disabled));
  EXPECT_EQ(by_default.metrics.speed_index, explicit_off.metrics.speed_index);
  EXPECT_EQ(by_default.metrics.page_load_time, explicit_off.metrics.page_load_time);
  EXPECT_EQ(by_default.transport.retransmissions, explicit_off.transport.retransmissions);
  EXPECT_EQ(by_default.connections_opened, explicit_off.connections_opened);
}

TEST(Http1Baseline, LoadsAndIsSlowerThanQuic) {
  const auto catalog = web::study_catalog(7);
  const auto& site = catalog[1];  // gov.uk
  const auto h1 = run_trial(TrialSpec(site, http1_baseline_protocol(), net::lte_profile(), 5));
  const auto quic = run_trial(TrialSpec(site, protocol_by_name("QUIC"), net::lte_profile(), 5));
  ASSERT_TRUE(h1.metrics.finished);
  ASSERT_TRUE(quic.metrics.finished);
  EXPECT_GT(h1.metrics.si_ms(), quic.metrics.si_ms());
  EXPECT_EQ(protocol_by_name("TCP-H1").transport, Transport::kTcpH1);
}

}  // namespace
}  // namespace qperc::core
