// Parameterized property sweeps over the statistics toolkit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <tuple>
#include <vector>

#include "stats/stats.hpp"
#include "stats/streaming.hpp"
#include "util/rng.hpp"

namespace qperc::stats {
namespace {

// ---- Student-t critical values against standard tables --------------------

using TCriticalCase = std::tuple<double /*level*/, double /*df*/, double /*expected*/>;

class TCriticalTest : public ::testing::TestWithParam<TCriticalCase> {};

TEST_P(TCriticalTest, MatchesReferenceTables) {
  const auto& [level, df, expected] = GetParam();
  EXPECT_NEAR(student_t_two_sided_critical(level, df), expected, 5e-3);
}

INSTANTIATE_TEST_SUITE_P(
    ReferenceTable, TCriticalTest,
    ::testing::Values(TCriticalCase{0.90, 5, 2.015}, TCriticalCase{0.90, 20, 1.725},
                      TCriticalCase{0.95, 5, 2.571}, TCriticalCase{0.95, 20, 2.086},
                      TCriticalCase{0.99, 5, 4.032}, TCriticalCase{0.99, 20, 2.845},
                      TCriticalCase{0.99, 120, 2.617}));

// ---- CI coverage: the 99% interval should contain the true mean ~99% ------

class CoverageTest : public ::testing::TestWithParam<int /*sample size*/> {};

TEST_P(CoverageTest, ConfidenceIntervalCoversTrueMean) {
  const int n = GetParam();
  Rng rng(31 + static_cast<std::uint64_t>(n));
  constexpr double kTrueMean = 42.0;
  int covered = 0;
  constexpr int kTrials = 600;
  for (int trial = 0; trial < kTrials; ++trial) {
    std::vector<double> sample;
    sample.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) sample.push_back(rng.normal(kTrueMean, 7.0));
    const auto ci = mean_confidence_interval(sample, 0.95);
    covered += ci.lower() <= kTrueMean && kTrueMean <= ci.upper();
  }
  const double coverage = static_cast<double>(covered) / kTrials;
  EXPECT_NEAR(coverage, 0.95, 0.03) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(SampleSizes, CoverageTest, ::testing::Values(5, 12, 40, 150));

// ---- ANOVA power/size sweep ------------------------------------------------

class AnovaSizeTest : public ::testing::TestWithParam<int /*groups*/> {};

TEST_P(AnovaSizeTest, FalsePositiveRateNearAlpha) {
  const int k = GetParam();
  Rng rng(77 + static_cast<std::uint64_t>(k));
  int rejections = 0;
  constexpr int kTrials = 400;
  for (int trial = 0; trial < kTrials; ++trial) {
    std::vector<std::vector<double>> groups(static_cast<std::size_t>(k));
    for (auto& group : groups) {
      for (int i = 0; i < 25; ++i) group.push_back(rng.normal(10.0, 2.0));
    }
    rejections += one_way_anova(groups).significant_at(0.05);
  }
  const double rate = static_cast<double>(rejections) / kTrials;
  EXPECT_NEAR(rate, 0.05, 0.035) << k << " groups";
}

INSTANTIATE_TEST_SUITE_P(GroupCounts, AnovaSizeTest, ::testing::Values(2, 3, 5, 8));

TEST(AnovaPower, DetectsSmallShiftWithEnoughData) {
  Rng rng(5);
  std::vector<std::vector<double>> groups(2);
  for (int i = 0; i < 400; ++i) {
    groups[0].push_back(rng.normal(10.0, 2.0));
    groups[1].push_back(rng.normal(11.0, 2.0));  // 0.5 sd shift
  }
  EXPECT_TRUE(one_way_anova(groups).significant_at(0.01));
}

// ---- Pearson under noise ----------------------------------------------------

class PearsonNoiseTest : public ::testing::TestWithParam<double /*noise sd*/> {};

TEST_P(PearsonNoiseTest, AttenuatesWithNoise) {
  const double noise = GetParam();
  Rng rng(11);
  std::vector<double> x;
  std::vector<double> y;
  for (int i = 0; i < 3000; ++i) {
    const double value = rng.normal(0.0, 1.0);
    x.push_back(value);
    y.push_back(value + rng.normal(0.0, noise));
  }
  const double expected = 1.0 / std::sqrt(1.0 + noise * noise);
  EXPECT_NEAR(pearson(x, y), expected, 0.05) << "noise " << noise;
}

INSTANTIATE_TEST_SUITE_P(NoiseLevels, PearsonNoiseTest,
                         ::testing::Values(0.0, 0.5, 1.0, 2.0, 4.0));

// ---- Quantiles are order statistics ----------------------------------------

TEST(QuantileProperty, MonotoneInQ) {
  Rng rng(3);
  std::vector<double> xs;
  for (int i = 0; i < 500; ++i) xs.push_back(rng.lognormal(0.0, 1.0));
  double previous = -1e300;
  for (double q = 0.0; q <= 1.0001; q += 0.05) {
    const double value = quantile(xs, q);
    EXPECT_GE(value, previous);
    previous = value;
  }
}

TEST(QuantileProperty, BoundsAreMinAndMax) {
  const std::vector<double> xs = {5.0, -2.0, 8.0, 1.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), -2.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 8.0);
  EXPECT_DOUBLE_EQ(quantile(xs, -0.5), -2.0);  // clamped
  EXPECT_DOUBLE_EQ(quantile(xs, 2.0), 8.0);    // clamped
}


// ---- Streaming accumulators vs the batch toolkit ---------------------------
//
// Contract for the population engine: ExactMoments must agree with the batch
// formulas within its quantization, and bit-for-bit with itself under ANY
// merge order (its integer state is what makes sharded studies
// byte-identical).

std::vector<double> random_sample(Rng& rng, std::size_t n, double mean, double sd) {
  std::vector<double> xs;
  xs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) xs.push_back(rng.normal(mean, sd));
  return xs;
}

class StreamingAgreementTest : public ::testing::TestWithParam<std::uint64_t /*seed*/> {};

TEST_P(StreamingAgreementTest, ExactMomentsMergeIsBitExactInAnyOrder) {
  Rng rng(GetParam() * 31 + 11);
  const auto xs = random_sample(rng, 600, 40.0, 12.0);  // vote-scale data
  ExactMoments sequential;
  for (const double x : xs) sequential.push(x);
  for (const std::size_t chunk : {3UL, 50UL, 199UL}) {
    std::vector<ExactMoments> parts;
    for (std::size_t begin = 0; begin < xs.size(); begin += chunk) {
      ExactMoments part;
      for (std::size_t i = begin; i < std::min(xs.size(), begin + chunk); ++i) {
        part.push(xs[i]);
      }
      parts.push_back(part);
    }
    // Forward, reverse, and odd-even interleaved merge orders: the integer
    // state must be IDENTICAL, not merely close.
    std::vector<std::vector<std::size_t>> orders;
    std::vector<std::size_t> forward(parts.size());
    std::iota(forward.begin(), forward.end(), std::size_t{0});
    orders.push_back(forward);
    orders.emplace_back(forward.rbegin(), forward.rend());
    std::vector<std::size_t> interleaved;
    for (std::size_t i = 0; i < parts.size(); i += 2) interleaved.push_back(i);
    for (std::size_t i = 1; i < parts.size(); i += 2) interleaved.push_back(i);
    orders.push_back(interleaved);
    for (const auto& order : orders) {
      ExactMoments merged;
      for (const std::size_t i : order) merged.merge(parts[i]);
      EXPECT_EQ(merged.count(), sequential.count());
      EXPECT_EQ(merged.sum_q(), sequential.sum_q());
      EXPECT_EQ(merged.sumsq_hi(), sequential.sumsq_hi());
      EXPECT_EQ(merged.sumsq_lo(), sequential.sumsq_lo());
      // Identical integer state implies identical derived doubles.
      EXPECT_EQ(merged.mean(), sequential.mean());
      EXPECT_EQ(merged.sample_variance(), sequential.sample_variance());
    }
  }
}

TEST_P(StreamingAgreementTest, ExactMomentsMatchesBatchWithinQuantization) {
  Rng rng(GetParam() * 131 + 7);
  const auto xs = random_sample(rng, 900, 37.0, 11.0);
  ExactMoments m;
  for (const double x : xs) m.push(x);
  // Per-observation quantization error is <= 2^-21; means and variances of
  // vote-scale data inherit it far below reporting precision.
  EXPECT_NEAR(m.mean(), mean(xs), 1e-5);
  EXPECT_NEAR(m.sample_variance(), sample_variance(xs), 1e-3);
  const auto batch_ci = mean_confidence_interval(xs, 0.99);
  const auto stream_ci = mean_confidence_interval(m, 0.99);
  EXPECT_NEAR(stream_ci.center, batch_ci.center, 1e-5);
  EXPECT_NEAR(stream_ci.half_width, batch_ci.half_width, 1e-5);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamingAgreementTest,
                         ::testing::Values(1, 2, 3, 17, 4242));

// ---- Streaming inference helpers -------------------------------------------

TEST(StreamingInference, WelchDetectsAShiftAndAcceptsANullShift) {
  Rng rng(99);
  ExactMoments a;
  ExactMoments b;
  ExactMoments c;
  for (int i = 0; i < 4000; ++i) {
    a.push(rng.normal(50.0, 10.0));
    b.push(rng.normal(51.5, 10.0));
    c.push(rng.normal(50.0, 10.0));
  }
  const auto shifted = welch_t_test(a, b);
  EXPECT_LT(shifted.p_value, 1e-6);
  EXPECT_NEAR(shifted.difference, -1.5, 0.7);
  EXPECT_TRUE(shifted.significant_at(0.01));
  const auto null = welch_t_test(a, c);
  EXPECT_GT(null.p_value, 0.01);
}

TEST(StreamingInference, NormalQuantileInvertsTheNormalCdf) {
  for (double p = 0.001; p < 0.9995; p += 0.0007) {
    const double x = normal_quantile(p);
    const double cdf = 0.5 * std::erfc(-x / std::sqrt(2.0));
    EXPECT_NEAR(cdf, p, 1e-8) << "p=" << p;
  }
  EXPECT_NEAR(normal_quantile(0.975), 1.959964, 1e-5);
  EXPECT_NEAR(normal_quantile(0.5), 0.0, 1e-12);
}

TEST(StreamingInference, MinDetectableEffectShrinksAsRootN) {
  const double var = 144.0;
  const double mde35 = min_detectable_effect(var, 35, var, 35, 0.05, 0.8);
  const double mde3500 = min_detectable_effect(var, 3500, var, 3500, 0.05, 0.8);
  EXPECT_GT(mde35, 0.0);
  // 100x the sample => 10x smaller detectable effect.
  EXPECT_NEAR(mde35 / mde3500, 10.0, 1e-6);
  // Reference value: (1.96 + 0.8416) * sqrt(2 * 144 / 35) ~= 8.036.
  EXPECT_NEAR(mde35, 8.036, 0.01);
}

TEST(StreamingInference, TwoProportionZAndWilsonBehave)
{
  const auto detect = two_proportion_z_test(600, 1000, 400, 1000);
  EXPECT_NEAR(detect.difference, 0.2, 1e-12);
  EXPECT_LT(detect.p_value, 1e-6);
  const auto null = two_proportion_z_test(500, 1000, 505, 1000);
  EXPECT_GT(null.p_value, 0.5);
  const auto wilson = wilson_interval(30, 100, 0.95);
  EXPECT_GT(wilson.center, 0.0);
  EXPECT_LT(wilson.upper(), 1.0);
  EXPECT_GE(wilson.lower(), 0.0);
  // The interval covers the observed share.
  EXPECT_LE(wilson.lower(), 0.30);
  EXPECT_GE(wilson.upper(), 0.30);
}

}  // namespace
}  // namespace qperc::stats
