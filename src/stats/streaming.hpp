// Online (streaming) statistics for population-scale studies.
//
// The batch toolkit in stats.hpp materializes every observation; these
// accumulators fold an unbounded stream into O(1) state so 10M-rater studies
// never hold a per-participant vector.
//
//   * ExactMoments — quantizes each observation to a 2^-20 fixed-point grid
//     once at push() time and then accumulates pure integer sums (count,
//     sum, sum of squares in 128 bits). Integer addition is associative and
//     commutative, so merges are bit-identical under ANY grouping or order —
//     the property the population study engine needs for byte-identical
//     exports across job counts and shard layouts (the same reason campaign
//     totals are integer sums of net::TransportStats). The price is a bounded,
//     deterministic quantization of ~5e-7 per observation.
//
// Inference helpers (confidence intervals, Welch's two-sample t, Wilson
// proportion intervals, minimum detectable effect) take plain moments, so
// the accumulator and the batch functions feed the same code paths.
#pragma once

#include <cstdint>

#include "stats/stats.hpp"

namespace qperc::stats {

// ---- Exact fixed-point moments ---------------------------------------------

/// Streaming count/mean/variance over observations quantized to a 2^-20
/// fixed-point grid. All state is integer, so merge() is bit-exact under any
/// grouping or order. Supported domain: |x| <= ~4e3 per observation (votes,
/// confidences, seconds all fit with huge margin) and up to ~2^36
/// observations before the 64-bit linear sum could overflow.
class ExactMoments {
 public:
  /// Fixed-point scale: observations are rounded to multiples of 1/kScale.
  static constexpr double kScale = 1048576.0;  // 2^20

  void push(double x);
  void merge(const ExactMoments& other);

  [[nodiscard]] std::uint64_t count() const { return n_; }
  [[nodiscard]] double mean() const;
  /// Unbiased sample variance of the quantized stream; 0 for n < 2.
  [[nodiscard]] double sample_variance() const;
  [[nodiscard]] double sample_stddev() const;

  /// Raw integer state, for serialization (checkpoint files) and tests.
  [[nodiscard]] std::int64_t sum_q() const { return sum_q_; }
  [[nodiscard]] std::uint64_t sumsq_hi() const { return sumsq_hi_; }
  [[nodiscard]] std::uint64_t sumsq_lo() const { return sumsq_lo_; }
  /// Rebuilds an accumulator from serialized state.
  static ExactMoments restore(std::uint64_t n, std::int64_t sum_q, std::uint64_t sumsq_hi,
                              std::uint64_t sumsq_lo);

 private:
  std::uint64_t n_ = 0;
  std::int64_t sum_q_ = 0;
  // 128-bit sum of squared quantized observations, as two 64-bit words
  // (portable — no __int128, which -Wpedantic rejects).
  std::uint64_t sumsq_hi_ = 0;
  std::uint64_t sumsq_lo_ = 0;
};

// ---- Inference from streamed moments ---------------------------------------

/// Student-t confidence interval for a mean given streamed moments; matches
/// stats::mean_confidence_interval on the same data (half-width 0 for n < 2).
[[nodiscard]] ConfidenceInterval moments_confidence_interval(double mean,
                                                             double sample_variance,
                                                             std::uint64_t n, double level);
[[nodiscard]] ConfidenceInterval mean_confidence_interval(const ExactMoments& m,
                                                          double level);

/// Welch's two-sample t test computed from streamed moments only.
struct TwoSampleResult {
  double difference = 0.0;      ///< mean_a - mean_b
  double standard_error = 0.0;  ///< sqrt(var_a/n_a + var_b/n_b)
  double t_statistic = 0.0;
  double df = 0.0;  ///< Welch–Satterthwaite degrees of freedom
  double p_value = 1.0;
  [[nodiscard]] bool significant_at(double alpha) const { return p_value < alpha; }
};

[[nodiscard]] TwoSampleResult welch_t_test(double mean_a, double var_a, std::uint64_t n_a,
                                           double mean_b, double var_b, std::uint64_t n_b);
[[nodiscard]] TwoSampleResult welch_t_test(const ExactMoments& a, const ExactMoments& b);

/// Two-proportion z test (pooled standard error) from streaming counts —
/// the A/B study's "does the prefer-QUIC share differ" question.
[[nodiscard]] TwoSampleResult two_proportion_z_test(std::uint64_t successes_a,
                                                    std::uint64_t n_a,
                                                    std::uint64_t successes_b,
                                                    std::uint64_t n_b);

/// Wilson score interval for a binomial proportion — usable directly from
/// streaming counts, and better behaved than the Wald interval at the
/// extreme shares crowdsourced A/B cells produce.
[[nodiscard]] ConfidenceInterval wilson_interval(std::uint64_t successes, std::uint64_t n,
                                                 double level);

/// Smallest true mean difference a two-sided level-`alpha` test reaches the
/// given `power` against, for per-group sizes (n_a, n_b) with the given
/// variances: (z_{1-alpha/2} + z_{power}) * sqrt(var_a/n_a + var_b/n_b).
/// This is the study-design question the paper's n≈35 could not answer:
/// how small an effect could millions of raters still resolve?
[[nodiscard]] double min_detectable_effect(double var_a, std::uint64_t n_a, double var_b,
                                           std::uint64_t n_b, double alpha, double power);

/// Inverse CDF of the standard normal (Acklam's rational approximation,
/// |relative error| < 1.2e-9). p in (0,1); clamps at the boundaries.
[[nodiscard]] double normal_quantile(double p);

}  // namespace qperc::stats
