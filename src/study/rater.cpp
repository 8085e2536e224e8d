#include "study/rater.hpp"

#include <algorithm>
#include <cmath>

namespace qperc::study {
namespace {

/// Metric blend exponents (sum to 1): visual progress dominates.
constexpr double kSiWeight = 0.70;
constexpr double kFvcWeight = 0.20;
constexpr double kVc85Weight = 0.10;

/// Weber–Fechner slope in rating points per log-unit of waiting.
constexpr double kRatingSlope = 15.0;

/// Additive perceptual floor (seconds) for side-by-side comparisons: below
/// roughly a second, absolute differences in loading processes are hard to
/// resolve even when their ratio is large — this is why spotting differences
/// on the fast DSL network is hard (§4.3) despite sizable relative gaps.
constexpr double kPerceptionFloorSeconds = 1.25;

/// Context tolerance tau (seconds): at work people are least patient; on a
/// plane expectations are lowest.
double context_tolerance(Context context) {
  switch (context) {
    case Context::kWork: return 0.70;
    case Context::kFreeTime: return 0.85;
    case Context::kPlane: return 1.10;
  }
  return 0.8;
}

double safe_seconds(double ms) { return std::max(ms / 1000.0, 1e-3); }

/// Content appeal: people cannot fully separate "how fast did it load" from
/// "how much do I like this page"; each site carries a stable rating offset.
/// This constant-variance bias weakens metric-vs-vote correlations on fast
/// networks (small metric spread) far more than on slow ones — the
/// per-column trend of Figure 6.
double site_appeal(const std::string& site_name) {
  Rng rng(fnv1a(site_name) ^ 0x5ee7a11aULL);
  return rng.normal(0.0, 4.0);
}

}  // namespace

double perceived_duration_seconds(const browser::PageMetrics& metrics) {
  const double log_blend = kSiWeight * std::log(safe_seconds(metrics.si_ms())) +
                           kFvcWeight * std::log(safe_seconds(metrics.fvc_ms())) +
                           kVc85Weight * std::log(safe_seconds(metrics.vc85_ms()));
  return std::exp(log_blend);
}

double ideal_rating(const browser::PageMetrics& metrics, Context context) {
  // The +0.25 s offset keeps even instantaneous loads below "ideal": real
  // raters almost never award the scale's end point.
  const double perceived = perceived_duration_seconds(metrics) + 0.25;
  const double raw =
      70.0 - kRatingSlope * std::log1p(perceived / context_tolerance(context));
  return std::clamp(raw, 10.0, 70.0);
}

RatingStimulus rating_stimulus(const core::Video& video) {
  RatingStimulus stimulus;
  for (const Context context : {Context::kWork, Context::kFreeTime, Context::kPlane}) {
    stimulus.ideal[static_cast<std::size_t>(context)] = ideal_rating(video.metrics, context);
  }
  stimulus.appeal = site_appeal(video.site);
  return stimulus;
}

double rate_video(const RatingStimulus& stimulus, Context context,
                  const Participant& participant, Rng& rng) {
  const double ideal = stimulus.ideal[static_cast<std::size_t>(context)];
  if (participant.cheater) {
    // Voluntary (Internet) careless raters straight-line near an anchor —
    // this multimodal contamination is what breaks the group's normality
    // (§4.2) and gets it excluded from the analysis.
    if (participant.group == Group::kInternet) {
      return std::clamp(participant.cheater_anchor + rng.normal(0.0, 2.0), 10.0, 70.0);
    }
    // Paid crowd cheaters who survive the control checks were paying some
    // attention: shrunk sensitivity and doubled noise, but not uniform.
    const double lazy = 0.6 * ideal + 0.4 * 40.0;
    return std::clamp(lazy + rng.normal(0.0, 10.0), 10.0, 70.0);
  }
  const double rating = ideal + stimulus.appeal + participant.rating_bias +
                        rng.normal(0.0, participant.vote_noise_sd);
  return std::clamp(rating, 10.0, 70.0);
}

PairStimulus pair_stimulus(const core::Video& first, const core::Video& second) {
  PairStimulus pair;
  // The additive floor makes sub-second absolute differences hard to spot
  // regardless of their ratio.
  pair.evidence =
      std::log(perceived_duration_seconds(second.metrics) + kPerceptionFloorSeconds) -
      std::log(perceived_duration_seconds(first.metrics) + kPerceptionFloorSeconds);
  // Replays: the harder the call (small evidence), the more often people
  // rewind — the paper observes more replays on the fast networks (§4.2).
  pair.difficulty = std::exp(-16.0 * std::fabs(pair.evidence));
  return pair;
}

AbVote ab_vote(const PairStimulus& pair, const Participant& participant, Rng& rng) {
  AbVote vote;
  if (participant.cheater) {
    const auto pick = rng.uniform_int(0, 2);
    vote.choice = pick == 0   ? AbChoice::kFirst
                  : pick == 1 ? AbChoice::kSecond
                              : AbChoice::kNoDifference;
    vote.confidence = rng.uniform(0.0, 1.0);
    vote.replays = 0;
    return vote;
  }

  const double observed = pair.evidence + rng.normal(0.0, participant.observation_noise);
  if (std::fabs(observed) < participant.jnd) {
    vote.choice = AbChoice::kNoDifference;
  } else {
    vote.choice = observed > 0 ? AbChoice::kFirst : AbChoice::kSecond;
  }
  vote.confidence = std::clamp(std::fabs(observed) / (2.0 * participant.jnd), 0.0, 1.0);
  const double lambda =
      std::clamp(3.0 * pair.difficulty * participant.replay_scale, 0.05, 3.5);
  vote.replays = static_cast<std::uint32_t>(rng.poisson(lambda));
  return vote;
}

}  // namespace qperc::study
