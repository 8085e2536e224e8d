#include "study/conformance.hpp"

#include <algorithm>

namespace qperc::study {
namespace {

/// Extra probability that a random-clicking cheater fails a control check.
/// Applies to paid crowd workers (random answers fail the obvious control
/// video / color question most of the time). Internet straight-liners watch
/// the videos and answer controls correctly — they are merely lazy raters —
/// so the penalty does not apply to them.
constexpr double kCheaterControlPenalty = 0.55;

const std::array<double, kRuleCount>& base_rates(Group group, StudyKind kind) {
  const GroupParams& params = params_for(group);
  return kind == StudyKind::kAb ? params.rule_violation_ab : params.rule_violation_rating;
}

/// Base rate adjusted so that with `cheater_fraction` of cheaters violating
/// control rules at +penalty, the population marginal stays at `target`.
double adjusted_base(double target, double cheater_fraction) {
  const double adjusted =
      (target - kCheaterControlPenalty * cheater_fraction) / (1.0 - cheater_fraction);
  return std::clamp(adjusted, 0.0, 1.0);
}

}  // namespace

std::string_view rule_name(std::size_t rule) {
  static constexpr std::array<std::string_view, kRuleCount> names = {"R1", "R2", "R3", "R4",
                                                                     "R5", "R6", "R7"};
  return rule < kRuleCount ? names[rule] : "?";
}

std::string_view rule_description(std::size_t rule) {
  static constexpr std::array<std::string_view, kRuleCount> descriptions = {
      "video not played",
      "video stalled",
      "focus loss > 10 s",
      "vote before FVC",
      "study > 25 min / question > 2 min",
      "control video answered wrong",
      "control question answered wrong",
  };
  return rule < kRuleCount ? descriptions[rule] : "?";
}

std::optional<std::size_t> sample_violation(StudyKind kind, const Participant& participant,
                                            Rng& rng) {
  const GroupParams& params = params_for(participant.group);
  const auto& rates = base_rates(participant.group, kind);
  const bool penalized_group = participant.group == Group::kMicroworker;
  for (std::size_t rule = 0; rule < kRuleCount; ++rule) {
    double probability = rates[rule];
    // Control checks (R6, R7) catch random clickers disproportionately.
    if (rule >= 5 && penalized_group && params.cheater_fraction > 0.0) {
      probability = adjusted_base(probability, params.cheater_fraction);
      if (participant.cheater) probability += kCheaterControlPenalty;
    }
    if (rng.bernoulli(probability)) return rule;
  }
  return std::nullopt;
}

Enrolment enrol(Group group, StudyKind kind, Rng& rng) {
  Enrolment enrolment{sample_participant(group, rng), std::nullopt};
  enrolment.violation = sample_violation(kind, enrolment.participant, rng);
  return enrolment;
}

FunnelResult simulate_funnel(Group group, StudyKind kind, std::size_t initial, Rng rng) {
  FunnelResult result;
  result.initial = initial;
  std::array<std::size_t, kRuleCount> removed_at{};
  for (std::size_t i = 0; i < initial; ++i) {
    // Identity-derived stream: participant i's traits and violations are a
    // pure function of (rng state, i), never of how many draws earlier
    // participants consumed — the derivation the streaming engine uses, so
    // its results do not depend on job count, shard layout or resume.
    Rng participant_rng = rng.fork(i + 1);
    if (const auto rule = enrol(group, kind, participant_rng).violation) {
      ++removed_at[*rule];
    }
  }
  std::size_t survivors = initial;
  for (std::size_t rule = 0; rule < kRuleCount; ++rule) {
    survivors -= removed_at[rule];
    result.after_rule[rule] = survivors;
  }
  return result;
}

std::size_t paper_initial_cohort(Group group, StudyKind kind) {
  switch (group) {
    case Group::kLab: return 35;
    case Group::kMicroworker: return kind == StudyKind::kAb ? 487 : 1563;
    case Group::kInternet: return kind == StudyKind::kAb ? 218 : 209;
  }
  return 0;
}

}  // namespace qperc::study
