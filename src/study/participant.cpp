#include "study/participant.hpp"

#include <algorithm>
#include <stdexcept>

namespace qperc::study {

std::string_view to_string(Group group) {
  switch (group) {
    case Group::kLab: return "Lab";
    case Group::kMicroworker: return "uWorker";
    case Group::kInternet: return "Internet";
  }
  return "?";
}

std::string_view to_string(Context context) {
  switch (context) {
    case Context::kWork: return "At Work";
    case Context::kFreeTime: return "Free Time";
    case Context::kPlane: return "On a plane";
  }
  return "?";
}

const GroupParams& params_for(Group group) {
  // Rule-violation rates are calibrated against Table 3's sequential funnel
  // (share removed at each rule among those reaching it). The lab cohort is
  // supervised: nobody is filtered.
  static const GroupParams lab = {
      .vote_noise_sd = 4.0,
      .bias_sd = 3.5,
      .observation_noise = 0.030,
      .jnd_mean = 0.045,
      .jnd_sd = 0.015,
      .cheater_fraction = 0.0,
      .replay_scale = 1.25,
      .seconds_per_video_ab = 17.7,
      .seconds_per_video_rating = 21.4,
      .rule_violation_ab = {0, 0, 0, 0, 0, 0, 0},
      .rule_violation_rating = {0, 0, 0, 0, 0, 0, 0},
  };
  static const GroupParams microworker = {
      .vote_noise_sd = 6.5,
      .bias_sd = 4.5,
      .observation_noise = 0.040,
      .jnd_mean = 0.050,
      .jnd_sd = 0.018,
      .cheater_fraction = 0.08,
      .replay_scale = 0.8,
      .seconds_per_video_ab = 14.5,
      .seconds_per_video_rating = 17.7,
      .rule_violation_ab = {0.033, 0.064, 0.195, 0.245, 0.002, 0.108, 0.025},
      .rule_violation_rating = {0.044, 0.116, 0.217, 0.291, 0.014, 0.086, 0.071},
  };
  static const GroupParams internet = {
      .vote_noise_sd = 8.5,
      .bias_sd = 6.0,
      .observation_noise = 0.050,
      .jnd_mean = 0.055,
      .jnd_sd = 0.020,
      .cheater_fraction = 0.18,  // heavy-tailed voluntary crowd => non-normal votes
      .replay_scale = 0.9,
      .seconds_per_video_ab = 15.6,
      .seconds_per_video_rating = 19.2,
      .rule_violation_ab = {0.005, 0.032, 0.067, 0.128, 0.006, 0.065, 0.025},
      .rule_violation_rating = {0.024, 0.049, 0.113, 0.116, 0.007, 0.073, 0.014},
  };
  switch (group) {
    case Group::kLab: return lab;
    case Group::kMicroworker: return microworker;
    case Group::kInternet: return internet;
  }
  throw std::invalid_argument("unknown group");
}

Participant sample_participant(Group group, Rng& rng) {
  const GroupParams& params = params_for(group);
  Participant participant;
  participant.group = group;
  participant.rating_bias = rng.normal(0.0, params.bias_sd);
  participant.vote_noise_sd =
      std::max(1.0, rng.normal(params.vote_noise_sd, params.vote_noise_sd * 0.25));
  participant.observation_noise =
      std::max(0.01, rng.normal(params.observation_noise, params.observation_noise * 0.3));
  participant.jnd = std::max(0.015, rng.normal(params.jnd_mean, params.jnd_sd));
  participant.cheater = rng.bernoulli(params.cheater_fraction);
  participant.cheater_anchor = rng.uniform(10.0, 70.0);
  participant.replay_scale =
      std::max(0.1, rng.normal(params.replay_scale, params.replay_scale * 0.3));
  return participant;
}

const std::vector<std::pair<std::string, std::string>>& ab_pairs() {
  static const std::vector<std::pair<std::string, std::string>> pairs = {
      {"TCP+", "TCP"},
      {"QUIC", "TCP"},
      {"QUIC", "TCP+"},
      {"QUIC+BBR", "TCP+BBR"},
  };
  return pairs;
}

const std::vector<net::NetworkKind>& networks_for_context(Context context) {
  static const std::vector<net::NetworkKind> fast = {net::NetworkKind::kDsl,
                                                     net::NetworkKind::kLte};
  static const std::vector<net::NetworkKind> plane = {net::NetworkKind::kDa2gc,
                                                      net::NetworkKind::kMss};
  return context == Context::kPlane ? plane : fast;
}

}  // namespace qperc::study
