#include "stats/streaming.hpp"

#include <algorithm>
#include <cmath>

namespace qperc::stats {
namespace {

/// 64x64 -> 128-bit unsigned multiply via 32-bit limbs (portable; avoids the
/// non-ISO __int128 extension).
void mul_u64(std::uint64_t a, std::uint64_t b, std::uint64_t& hi, std::uint64_t& lo) {
  const std::uint64_t a_lo = a & 0xffffffffULL;
  const std::uint64_t a_hi = a >> 32;
  const std::uint64_t b_lo = b & 0xffffffffULL;
  const std::uint64_t b_hi = b >> 32;
  const std::uint64_t p0 = a_lo * b_lo;
  const std::uint64_t p1 = a_lo * b_hi;
  const std::uint64_t p2 = a_hi * b_lo;
  const std::uint64_t p3 = a_hi * b_hi;
  const std::uint64_t mid = (p0 >> 32) + (p1 & 0xffffffffULL) + (p2 & 0xffffffffULL);
  lo = (p0 & 0xffffffffULL) | (mid << 32);
  hi = p3 + (p1 >> 32) + (p2 >> 32) + (mid >> 32);
}

/// 128-bit add: (hi, lo) += (add_hi, add_lo).
void add_u128(std::uint64_t& hi, std::uint64_t& lo, std::uint64_t add_hi,
              std::uint64_t add_lo) {
  lo += add_lo;
  hi += add_hi + (lo < add_lo ? 1 : 0);
}

/// Exact double value of a 128-bit unsigned integer (deterministic: a single
/// rounding of the true value, identical on every conforming platform).
double u128_to_double(std::uint64_t hi, std::uint64_t lo) {
  return std::ldexp(static_cast<double>(hi), 64) + static_cast<double>(lo);
}

}  // namespace

// ---- ExactMoments -----------------------------------------------------------

void ExactMoments::push(double x) {
  const std::int64_t q = std::llround(x * kScale);
  ++n_;
  sum_q_ += q;
  const std::uint64_t mag = static_cast<std::uint64_t>(q < 0 ? -q : q);
  std::uint64_t sq_hi = 0;
  std::uint64_t sq_lo = 0;
  mul_u64(mag, mag, sq_hi, sq_lo);
  add_u128(sumsq_hi_, sumsq_lo_, sq_hi, sq_lo);
}

void ExactMoments::merge(const ExactMoments& other) {
  n_ += other.n_;
  sum_q_ += other.sum_q_;
  add_u128(sumsq_hi_, sumsq_lo_, other.sumsq_hi_, other.sumsq_lo_);
}

double ExactMoments::mean() const {
  if (n_ == 0) return 0.0;
  return static_cast<double>(sum_q_) / kScale / static_cast<double>(n_);
}

double ExactMoments::sample_variance() const {
  if (n_ < 2) return 0.0;
  // Exact integer numerator: n * sum(q^2) - sum(q)^2 >= 0 (Cauchy–Schwarz),
  // evaluated in doubles only at the end. The subtraction of two large
  // doubles is the usual E[x^2] - E[x]^2 cancellation; with votes on a
  // 10..70 scale the relative error stays far below reporting precision,
  // and — crucially — the computation is a pure function of the integer
  // state, so it is bit-identical however that state was merged together.
  const double n = static_cast<double>(n_);
  const double sum = static_cast<double>(sum_q_);
  const double sumsq = u128_to_double(sumsq_hi_, sumsq_lo_);
  const double numerator = n * sumsq - sum * sum;
  const double variance = numerator / (n * (n - 1.0)) / (kScale * kScale);
  return std::max(0.0, variance);
}

double ExactMoments::sample_stddev() const { return std::sqrt(sample_variance()); }

ExactMoments ExactMoments::restore(std::uint64_t n, std::int64_t sum_q,
                                   std::uint64_t sumsq_hi, std::uint64_t sumsq_lo) {
  ExactMoments m;
  m.n_ = n;
  m.sum_q_ = sum_q;
  m.sumsq_hi_ = sumsq_hi;
  m.sumsq_lo_ = sumsq_lo;
  return m;
}

// ---- Inference --------------------------------------------------------------

ConfidenceInterval moments_confidence_interval(double mean, double sample_variance,
                                               std::uint64_t n, double level) {
  if (n < 2) return ConfidenceInterval{mean, 0.0};
  const double crit = student_t_two_sided_critical(level, static_cast<double>(n - 1));
  const double sem = std::sqrt(sample_variance / static_cast<double>(n));
  return ConfidenceInterval{mean, crit * sem};
}

ConfidenceInterval mean_confidence_interval(const ExactMoments& m, double level) {
  return moments_confidence_interval(m.mean(), m.sample_variance(), m.count(), level);
}

TwoSampleResult welch_t_test(double mean_a, double var_a, std::uint64_t n_a, double mean_b,
                             double var_b, std::uint64_t n_b) {
  TwoSampleResult result;
  result.difference = mean_a - mean_b;
  if (n_a < 2 || n_b < 2) return result;
  const double na = static_cast<double>(n_a);
  const double nb = static_cast<double>(n_b);
  const double se_a = var_a / na;
  const double se_b = var_b / nb;
  const double se2 = se_a + se_b;
  if (se2 <= 0.0) {
    // Zero variance in both groups: any nonzero difference is infinitely
    // significant; report p = 0 / 1 without dividing by zero.
    result.p_value = result.difference == 0.0 ? 1.0 : 0.0;
    result.df = na + nb - 2.0;
    return result;
  }
  result.standard_error = std::sqrt(se2);
  result.t_statistic = result.difference / result.standard_error;
  // Welch–Satterthwaite. Guard the denominator for single-observation terms
  // (n >= 2 is enforced above, so na - 1, nb - 1 >= 1).
  result.df = se2 * se2 / (se_a * se_a / (na - 1.0) + se_b * se_b / (nb - 1.0));
  result.p_value = 2.0 * (1.0 - student_t_cdf(std::fabs(result.t_statistic), result.df));
  result.p_value = std::clamp(result.p_value, 0.0, 1.0);
  return result;
}

TwoSampleResult welch_t_test(const ExactMoments& a, const ExactMoments& b) {
  return welch_t_test(a.mean(), a.sample_variance(), a.count(), b.mean(),
                      b.sample_variance(), b.count());
}

TwoSampleResult two_proportion_z_test(std::uint64_t successes_a, std::uint64_t n_a,
                                      std::uint64_t successes_b, std::uint64_t n_b) {
  TwoSampleResult result;
  if (n_a == 0 || n_b == 0) return result;
  const double na = static_cast<double>(n_a);
  const double nb = static_cast<double>(n_b);
  const double pa = static_cast<double>(successes_a) / na;
  const double pb = static_cast<double>(successes_b) / nb;
  result.difference = pa - pb;
  const double pooled =
      static_cast<double>(successes_a + successes_b) / (na + nb);
  const double se2 = pooled * (1.0 - pooled) * (1.0 / na + 1.0 / nb);
  result.df = na + nb;  // the normal limit; reported for symmetry
  if (se2 <= 0.0) {
    result.p_value = result.difference == 0.0 ? 1.0 : 0.0;
    return result;
  }
  result.standard_error = std::sqrt(se2);
  result.t_statistic = result.difference / result.standard_error;
  // Normal tail via the complementary error function.
  result.p_value = std::erfc(std::fabs(result.t_statistic) / std::sqrt(2.0));
  result.p_value = std::clamp(result.p_value, 0.0, 1.0);
  return result;
}

ConfidenceInterval wilson_interval(std::uint64_t successes, std::uint64_t n, double level) {
  if (n == 0) return ConfidenceInterval{0.0, 0.0};
  const double z = normal_quantile(0.5 + level / 2.0);
  const double nn = static_cast<double>(n);
  const double p = static_cast<double>(successes) / nn;
  const double z2 = z * z;
  const double denom = 1.0 + z2 / nn;
  const double center = (p + z2 / (2.0 * nn)) / denom;
  const double half =
      z * std::sqrt(p * (1.0 - p) / nn + z2 / (4.0 * nn * nn)) / denom;
  return ConfidenceInterval{center, half};
}

double min_detectable_effect(double var_a, std::uint64_t n_a, double var_b,
                             std::uint64_t n_b, double alpha, double power) {
  if (n_a == 0 || n_b == 0) return 0.0;
  const double z_alpha = normal_quantile(1.0 - alpha / 2.0);
  const double z_power = normal_quantile(power);
  const double se = std::sqrt(var_a / static_cast<double>(n_a) +
                              var_b / static_cast<double>(n_b));
  return (z_alpha + z_power) * se;
}

double normal_quantile(double p) {
  // Peter Acklam's rational approximation with the standard region split.
  constexpr double kLowBreak = 0.02425;
  p = std::clamp(p, 1e-300, 1.0 - 1e-16);
  constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                          -2.759285104469687e+02, 1.383577518672690e+02,
                          -3.066479806614716e+01, 2.506628277459239e+00};
  constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                          -1.556989798598866e+02, 6.680131188771972e+01,
                          -1.328068155288572e+01};
  constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                          -2.400758277161838e+00, -2.549732539343734e+00,
                          4.374664141464968e+00,  2.938163982698783e+00};
  constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                          2.445134137142996e+00, 3.754408661907416e+00};
  if (p < kLowBreak) {
    const double q = std::sqrt(-2.0 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  if (p > 1.0 - kLowBreak) {
    const double q = std::sqrt(-2.0 * std::log(1.0 - p));
    return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  const double q = p - 0.5;
  const double r = q * q;
  return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q /
         (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
}

}  // namespace qperc::stats
