// The seven-rule conformance filter of §4.1 and its Table-3 funnel.
//
// R1 video not played · R2 video stalled · R3 focus lost >10 s ·
// R4 vote before FVC · R5 study >25 min or question >2 min ·
// R6 control video answered wrong · R7 control question answered wrong.
#pragma once

#include <array>
#include <cstddef>
#include <optional>
#include <string_view>

#include "study/participant.hpp"
#include "util/rng.hpp"

namespace qperc::study {

inline constexpr std::size_t kRuleCount = 7;

[[nodiscard]] std::string_view rule_name(std::size_t rule);
[[nodiscard]] std::string_view rule_description(std::size_t rule);

/// Samples whether (and at which rule) a participant's session is removed.
/// Rules are evaluated in order; the first violation is reported.
/// Cheaters fail the control checks (R6/R7) at an elevated rate; the base
/// rates are adjusted so the population marginals match Table 3.
[[nodiscard]] std::optional<std::size_t> sample_violation(StudyKind kind,
                                                          const Participant& participant,
                                                          Rng& rng);

/// One participant entering a study: their traits and the first rule their
/// session violates (nullopt for a survivor).
struct Enrolment {
  Participant participant;
  std::optional<std::size_t> violation;
};

/// The head of the participant loop, shared by the streaming study engine
/// (population::run_streaming_study) and simulate_funnel: samples the traits,
/// then the R1..R7 funnel, from the participant's own stream `rng`, which
/// the caller derives from the participant's identity alone.
[[nodiscard]] Enrolment enrol(Group group, StudyKind kind, Rng& rng);

/// Table-3 row: survivor counts after each rule, applied sequentially.
struct FunnelResult {
  std::size_t initial = 0;
  std::array<std::size_t, kRuleCount> after_rule{};
  [[nodiscard]] std::size_t final_count() const { return after_rule[kRuleCount - 1]; }
};

[[nodiscard]] FunnelResult simulate_funnel(Group group, StudyKind kind, std::size_t initial,
                                           Rng rng);

/// The paper's observed cohort sizes (Table 3, first column).
[[nodiscard]] std::size_t paper_initial_cohort(Group group, StudyKind kind);

}  // namespace qperc::study
