// Core tests: Table-1 protocol configs, trial determinism, video selection.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "core/protocol.hpp"
#include "core/video.hpp"
#include "net/profile.hpp"
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

TEST(VideoLibrary, UnknownSiteThrows) {
  VideoLibrary library(7, 2);
  EXPECT_THROW(static_cast<void>(library.get("not-a-site.test", "QUIC", net::NetworkKind::kDsl)),
               std::invalid_argument);
  EXPECT_EQ(library.cached_conditions(), 0u);
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
