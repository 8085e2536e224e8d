// Browser tests: metric computation and the page-load engine.
#include <gtest/gtest.h>

#include <memory>

#include "browser/metrics.hpp"
#include "browser/page_loader.hpp"
#include "core/protocol.hpp"
#include "core/trial.hpp"
#include "http/session.hpp"
#include "net/profile.hpp"
#include "web/website.hpp"

namespace qperc::browser {
namespace {

TEST(Metrics, StepCurveKnownSpeedIndex) {
  // VC jumps to 0.5 at 1 s and to 1.0 at 3 s.
  const std::vector<VcSample> curve = {{SimTime(seconds(1)), 0.5},
                                       {SimTime(seconds(3)), 1.0}};
  const auto metrics = compute_metrics(curve, seconds(4), true);
  EXPECT_DOUBLE_EQ(metrics.fvc_ms(), 1000.0);
  EXPECT_DOUBLE_EQ(metrics.lvc_ms(), 3000.0);
  EXPECT_DOUBLE_EQ(metrics.plt_ms(), 4000.0);
  EXPECT_DOUBLE_EQ(metrics.vc85_ms(), 3000.0);
  // SI = 1 s (VC=0) + 2 s * 0.5 = 2 s.
  EXPECT_DOUBLE_EQ(metrics.si_ms(), 2000.0);
}

TEST(Metrics, SingleJumpCurve) {
  const std::vector<VcSample> curve = {{SimTime(seconds(2)), 1.0}};
  const auto metrics = compute_metrics(curve, seconds(2), true);
  EXPECT_DOUBLE_EQ(metrics.si_ms(), 2000.0);
  EXPECT_DOUBLE_EQ(metrics.fvc_ms(), 2000.0);
  EXPECT_DOUBLE_EQ(metrics.vc85_ms(), 2000.0);
}

TEST(Metrics, EmptyCurveFallsBackToPlt) {
  const auto metrics = compute_metrics({}, seconds(5), false);
  EXPECT_DOUBLE_EQ(metrics.si_ms(), 5000.0);
  EXPECT_FALSE(metrics.finished);
}

TEST(Metrics, Vc85FindsFirstCrossing) {
  const std::vector<VcSample> curve = {{SimTime(seconds(1)), 0.4},
                                       {SimTime(seconds(2)), 0.86},
                                       {SimTime(seconds(3)), 1.0}};
  const auto metrics = compute_metrics(curve, seconds(3), true);
  EXPECT_DOUBLE_EQ(metrics.vc85_ms(), 2000.0);
}

TEST(Metrics, NamesAndIndexAccessors) {
  PageMetrics metrics;
  metrics.first_visual_change = milliseconds(10);
  metrics.speed_index = milliseconds(20);
  metrics.visual_complete_85 = milliseconds(30);
  metrics.last_visual_change = milliseconds(40);
  metrics.page_load_time = milliseconds(50);
  EXPECT_STREQ(metric_name(0), "FVC");
  EXPECT_STREQ(metric_name(1), "SI");
  EXPECT_STREQ(metric_name(4), "PLT");
  EXPECT_DOUBLE_EQ(metrics.metric_ms(0), 10.0);
  EXPECT_DOUBLE_EQ(metrics.metric_ms(1), 20.0);
  EXPECT_DOUBLE_EQ(metrics.metric_ms(2), 30.0);
  EXPECT_DOUBLE_EQ(metrics.metric_ms(3), 40.0);
  EXPECT_DOUBLE_EQ(metrics.metric_ms(4), 50.0);
}

web::Website tiny_site() {
  web::Website site;
  site.name = "tiny.test";
  site.origin_count = 2;
  web::WebObject html;
  html.id = 0;
  html.type = web::ObjectType::kHtml;
  html.bytes = 20'000;
  html.parent = -1;
  html.render_blocking = true;
  html.render_weight = 0.4;
  site.objects.push_back(html);
  web::WebObject css;
  css.id = 1;
  css.type = web::ObjectType::kCss;
  css.bytes = 10'000;
  css.parent = 0;
  css.discovery_fraction = 0.2;
  css.render_blocking = true;
  css.render_weight = 0.2;
  css.priority = 0;
  site.objects.push_back(css);
  web::WebObject image;
  image.id = 2;
  image.type = web::ObjectType::kImage;
  image.origin = 1;
  image.bytes = 50'000;
  image.parent = 0;
  image.discovery_fraction = 0.8;
  image.render_weight = 0.4;
  image.priority = 3;
  site.objects.push_back(image);
  return site;
}

TEST(PageLoader, LoadsTinySiteAndOrdersMetrics) {
  const auto site = tiny_site();
  const auto& protocol = core::protocol_by_name("QUIC");
  const auto result = core::run_trial(core::TrialSpec(site, protocol, net::dsl_profile(), 5));
  ASSERT_TRUE(result.metrics.finished);
  EXPECT_GT(result.metrics.fvc_ms(), 0.0);
  EXPECT_LE(result.metrics.fvc_ms(), result.metrics.vc85_ms());
  EXPECT_LE(result.metrics.vc85_ms(), result.metrics.lvc_ms());
  EXPECT_LE(result.metrics.lvc_ms(), result.metrics.plt_ms() + 1e-9);
  // Two origins contacted.
  EXPECT_EQ(result.connections_opened, 2u);
}

TEST(PageLoader, VcCurveIsMonotoneAndEndsAtOne) {
  const auto site = tiny_site();
  const auto& protocol = core::protocol_by_name("TCP");
  const auto result = core::run_trial(core::TrialSpec(site, protocol, net::lte_profile(), 5));
  ASSERT_TRUE(result.metrics.finished);
  ASSERT_FALSE(result.vc_curve.empty());
  for (std::size_t i = 1; i < result.vc_curve.size(); ++i) {
    EXPECT_GE(result.vc_curve[i].completeness, result.vc_curve[i - 1].completeness);
    EXPECT_GE(result.vc_curve[i].time, result.vc_curve[i - 1].time);
  }
  EXPECT_NEAR(result.vc_curve.back().completeness, 1.0, 1e-9);
}

TEST(PageLoader, DependentObjectStartsAfterParentProgress) {
  // The image (discovered at 80% of HTML) cannot complete before the HTML.
  const auto site = tiny_site();
  const auto& protocol = core::protocol_by_name("TCP");
  const auto result = core::run_trial(core::TrialSpec(site, protocol, net::lte_profile(), 6));
  ASSERT_TRUE(result.metrics.finished);
  EXPECT_GT(result.object_complete_at[2], result.object_complete_at[0] / 2);
}

TEST(PageLoader, FirstPaintGatedOnBlockingCss) {
  // FVC must not precede the blocking CSS completion.
  const auto site = tiny_site();
  const auto& protocol = core::protocol_by_name("TCP+");
  const auto result = core::run_trial(core::TrialSpec(site, protocol, net::dsl_profile(), 9));
  ASSERT_TRUE(result.metrics.finished);
  const SimTime css_done = result.object_complete_at[1];
  EXPECT_GE(SimDuration{result.metrics.first_visual_change}, SimDuration{css_done});
}

TEST(PageLoader, MoreOriginsMeansMoreConnections) {
  const auto catalog = web::study_catalog(7);
  const auto& small = *std::find_if(catalog.begin(), catalog.end(),
                                    [](const auto& s) { return s.name == "archive.org"; });
  const auto& many = *std::find_if(catalog.begin(), catalog.end(),
                                   [](const auto& s) { return s.name == "spotify.com"; });
  const auto& protocol = core::protocol_by_name("QUIC");
  const auto r_small = core::run_trial(core::TrialSpec(small, protocol, net::dsl_profile(), 3));
  const auto r_many = core::run_trial(core::TrialSpec(many, protocol, net::dsl_profile(), 3));
  EXPECT_EQ(r_small.connections_opened, small.contacted_origins());
  EXPECT_EQ(r_many.connections_opened, many.contacted_origins());
  EXPECT_GT(r_many.connections_opened, r_small.connections_opened);
}

TEST(RenderModel, DeferredTailExtendsPltButNotSi) {
  // Two copies of a site, one with an extra invisible deferred beacon that
  // fires late: PLT must grow, SI must stay (nearly) unchanged.
  auto site = tiny_site();
  auto with_tail = site;
  web::WebObject beacon;
  beacon.id = 3;
  beacon.type = web::ObjectType::kOther;
  beacon.origin = 0;
  beacon.bytes = 2'000;
  beacon.parent = 0;
  beacon.discovery_fraction = 1.0;
  beacon.parse_delay = seconds(2);
  beacon.deferred = true;
  beacon.render_weight = 0.0;
  with_tail.objects.push_back(beacon);

  const auto& protocol = core::protocol_by_name("TCP+");
  const auto base = core::run_trial(core::TrialSpec(site, protocol, net::dsl_profile(), 21));
  const auto tailed = core::run_trial(core::TrialSpec(with_tail, protocol, net::dsl_profile(), 21));
  ASSERT_TRUE(base.metrics.finished);
  ASSERT_TRUE(tailed.metrics.finished);
  EXPECT_GT(tailed.metrics.plt_ms(), base.metrics.plt_ms() + 1'500.0);
  EXPECT_NEAR(tailed.metrics.si_ms(), base.metrics.si_ms(),
              base.metrics.si_ms() * 0.25);
}

TEST(RenderModel, StudyCatalogDecouplesPltFromLvc) {
  // Across the generated catalog, deferred tails make PLT exceed LVC for a
  // solid share of sites (the Figure-6 mechanism).
  const auto catalog = web::study_catalog(7);
  const auto& protocol = core::protocol_by_name("QUIC");
  int plt_beyond_lvc = 0;
  int tested = 0;
  for (std::size_t i = 0; i < catalog.size(); i += 4) {  // sample every 4th site
    const auto result = core::run_trial(core::TrialSpec(catalog[i], protocol, net::dsl_profile(), 5));
    if (!result.metrics.finished) continue;
    ++tested;
    if (result.metrics.plt_ms() > result.metrics.lvc_ms() * 1.10) ++plt_beyond_lvc;
  }
  ASSERT_GE(tested, 7);
  EXPECT_GE(plt_beyond_lvc, tested / 3);
}

TEST(PageLoader, ConnectionPoolCapsConcurrentHandshakes) {
  // A many-origin site must still contact every origin despite the pool cap.
  const auto catalog = web::study_catalog(7);
  const auto& many = *std::find_if(catalog.begin(), catalog.end(),
                                   [](const auto& s) { return s.name == "cnn.com"; });
  const auto& protocol = core::protocol_by_name("QUIC");
  const auto result = core::run_trial(core::TrialSpec(many, protocol, net::dsl_profile(), 8));
  ASSERT_TRUE(result.metrics.finished);
  EXPECT_EQ(result.connections_opened, many.contacted_origins());
}

TEST(PageLoader, DeterministicForSameSeed) {
  const auto catalog = web::study_catalog(7);
  const auto& protocol = core::protocol_by_name("QUIC+BBR");
  const auto a = core::run_trial(core::TrialSpec(catalog[6], protocol, net::mss_profile(), 77));
  const auto b = core::run_trial(core::TrialSpec(catalog[6], protocol, net::mss_profile(), 77));
  EXPECT_DOUBLE_EQ(a.metrics.plt_ms(), b.metrics.plt_ms());
  EXPECT_DOUBLE_EQ(a.metrics.si_ms(), b.metrics.si_ms());
  EXPECT_EQ(a.transport.retransmissions, b.transport.retransmissions);
}

TEST(PageLoader, DifferentSeedsDifferOnLossyNetworks) {
  const auto catalog = web::study_catalog(7);
  const auto& protocol = core::protocol_by_name("QUIC");
  const auto a = core::run_trial(core::TrialSpec(catalog[6], protocol, net::mss_profile(), 1));
  const auto b = core::run_trial(core::TrialSpec(catalog[6], protocol, net::mss_profile(), 2));
  EXPECT_NE(a.metrics.plt_ms(), b.metrics.plt_ms());
}

/// Accepts every request and never answers, never connects, and never
/// schedules an event: the loader is left waiting on an empty event queue.
class SilentSession final : public http::Session {
 public:
  void start() override {}
  void submit(const http::Request& /*request*/, ProgressFn /*on_progress*/) override {}
  [[nodiscard]] net::TransportStats stats() const override { return {}; }
  [[nodiscard]] bool established() const override { return false; }
  void set_on_established(SmallFunction<void()> /*cb*/) override {}
};

TEST(PageLoader, EmptyEventQueueIsReportedAsDeadlock) {
  const auto site = tiny_site();
  sim::Simulator simulator;
  const auto result = load_page(
      simulator, site,
      [](net::ServerId) -> std::unique_ptr<http::Session> {
        return std::make_unique<SilentSession>();
      },
      Rng(1), seconds(3), sim::Simulator::kDefaultEventCap);
  EXPECT_EQ(result.stop, StopReason::kDeadlock);
  EXPECT_FALSE(result.metrics.finished);
  EXPECT_EQ(result.object_complete_at[0], kNoTime);
  // The clock still runs out the cap: the partial PLT reads as time-capped.
  EXPECT_EQ(simulator.now(), SimTime{seconds(3)});
  EXPECT_EQ(result.metrics.page_load_time, seconds(3));
}

}  // namespace
}  // namespace qperc::browser
