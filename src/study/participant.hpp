// Simulated study participants.
//
// The paper recruits three subject groups (§4.1): a supervised lab cohort,
// paid Microworkers, and voluntary Internet users. Humans cannot be shipped
// in a library, so each participant is a psychometric model: a Weber–Fechner
// rater with per-person bias/noise, a just-noticeable-difference threshold
// for A/B comparisons, and latent inattentiveness/cheating traits that
// generate the rule violations the conformance filter (Table 3) removes.
// The study design they are shown (Figure 4's protocol pairs, the networks
// of each rating context) lives here too.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "net/profile.hpp"
#include "util/rng.hpp"

namespace qperc::study {

enum class Group { kLab, kMicroworker, kInternet };
enum class Context { kWork, kFreeTime, kPlane };
enum class StudyKind { kAb, kRating };

[[nodiscard]] std::string_view to_string(Group group);
[[nodiscard]] std::string_view to_string(Context context);

/// Group-level behaviour parameters, calibrated so the filter funnel matches
/// Table 3 and the group agreement matches Figure 3.
struct GroupParams {
  /// Stddev of per-vote rating noise (points on the 10..70 scale).
  double vote_noise_sd = 6.0;
  /// Stddev of the per-person systematic rating offset.
  double bias_sd = 4.0;
  /// Observation noise on the log perceptual difference in A/B trials.
  double observation_noise = 0.08;
  /// Just-noticeable difference on log perceived-duration ratio.
  double jnd_mean = 0.10;
  double jnd_sd = 0.035;
  /// Fraction of participants who click through randomly.
  double cheater_fraction = 0.0;
  /// Scales the replay-count model.
  double replay_scale = 1.0;
  /// Mean seconds spent per video (§4.2 reports these per group).
  double seconds_per_video_ab = 16.0;
  double seconds_per_video_rating = 19.0;
  /// Per-rule violation probabilities for an attentive participant,
  /// R1..R7 in order, per study kind.
  std::array<double, 7> rule_violation_ab{};
  std::array<double, 7> rule_violation_rating{};
};

[[nodiscard]] const GroupParams& params_for(Group group);

/// One sampled participant.
struct Participant {
  Group group = Group::kLab;
  double rating_bias = 0.0;
  double vote_noise_sd = 6.0;
  double observation_noise = 0.08;
  double jnd = 0.10;
  bool cheater = false;
  /// Straight-liner anchor: careless voluntary participants park the slider
  /// near one position; paid crowd cheaters click around randomly.
  double cheater_anchor = 40.0;
  double replay_scale = 1.0;
};

[[nodiscard]] Participant sample_participant(Group group, Rng& rng);

/// The four protocol pairs of Figure 4, in its order. The first element is
/// the "supposedly faster" variant.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>& ab_pairs();

/// Networks shown in a rating-study context block (work/free time: DSL+LTE;
/// plane: DA2GC+MSS).
[[nodiscard]] const std::vector<net::NetworkKind>& networks_for_context(Context context);

}  // namespace qperc::study
