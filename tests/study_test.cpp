// Study-layer tests: rater psychometrics, conformance filter, and the
// paper's two studies run end to end on the population engine.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <map>

#include "core/video.hpp"
#include "population/population_study.hpp"
#include "stats/stats.hpp"
#include "study/conformance.hpp"
#include "study/participant.hpp"
#include "study/rater.hpp"

namespace qperc::study {
namespace {

browser::PageMetrics metrics_with_si(double si_ms) {
  browser::PageMetrics metrics;
  metrics.speed_index = from_seconds(si_ms / 1000.0);
  metrics.first_visual_change = from_seconds(si_ms / 1000.0 * 0.6);
  metrics.visual_complete_85 = from_seconds(si_ms / 1000.0 * 1.2);
  metrics.last_visual_change = from_seconds(si_ms / 1000.0 * 1.5);
  metrics.page_load_time = from_seconds(si_ms / 1000.0 * 2.0);
  metrics.finished = true;
  return metrics;
}

core::Video video_with_si(double si_ms) {
  core::Video video;
  video.metrics = metrics_with_si(si_ms);
  return video;
}

PairStimulus pair_with_si(double first_si_ms, double second_si_ms) {
  return pair_stimulus(video_with_si(first_si_ms), video_with_si(second_si_ms));
}

Participant attentive_participant() {
  Participant participant;
  participant.rating_bias = 0.0;
  participant.vote_noise_sd = 1.0;
  participant.observation_noise = 0.01;
  participant.jnd = 0.08;
  participant.cheater = false;
  return participant;
}

TEST(Rater, PerceivedDurationIncreasesWithSi) {
  EXPECT_LT(perceived_duration_seconds(metrics_with_si(500)),
            perceived_duration_seconds(metrics_with_si(5000)));
}

TEST(Rater, IdealRatingMonotoneDecreasingInSi) {
  double previous = 1e9;
  for (const double si : {300.0, 1000.0, 3000.0, 10'000.0, 40'000.0}) {
    const double rating = ideal_rating(metrics_with_si(si), Context::kWork);
    EXPECT_LT(rating, previous) << si;
    previous = rating;
  }
}

TEST(Rater, FastLoadsRateGoodSlowLoadsRateBad) {
  // DSL-like: excellent/good territory.
  EXPECT_GT(ideal_rating(metrics_with_si(1200), Context::kFreeTime), 50.0);
  // In-flight network: poor/bad.
  EXPECT_LT(ideal_rating(metrics_with_si(20'000), Context::kPlane), 40.0);
  // Scale bounds respected.
  EXPECT_LE(ideal_rating(metrics_with_si(1), Context::kWork), 70.0);
  EXPECT_GE(ideal_rating(metrics_with_si(10'000'000), Context::kWork), 10.0);
}

TEST(Rater, PlaneContextIsMoreLenient) {
  EXPECT_GT(ideal_rating(metrics_with_si(8000), Context::kPlane),
            ideal_rating(metrics_with_si(8000), Context::kWork));
}

// The study engine computes each stimulus's constants once and every vote
// reads them, so they must equal, bit for bit, what the per-vote formulas
// give.
TEST(Rater, StimulusConstantsEqualThePerVoteFormulas) {
  constexpr std::array<double, 9> kSiMs = {1.0,    300.0,    1000.0,   1500.0,    1550.0,
                                           3000.0, 10'000.0, 40'000.0, 10'000'000.0};
  const auto sign = [](double x) { return (x > 0.0) - (x < 0.0); };
  for (const double si : kSiMs) {
    const core::Video video = video_with_si(si);
    const RatingStimulus stimulus = rating_stimulus(video);
    for (const Context context : {Context::kWork, Context::kFreeTime, Context::kPlane}) {
      EXPECT_EQ(stimulus.ideal[static_cast<std::size_t>(context)],
                ideal_rating(video.metrics, context))
          << si << ' ' << to_string(context);
    }
    for (const double other : kSiMs) {
      const PairStimulus forward = pair_with_si(si, other);
      const PairStimulus swapped = pair_with_si(other, si);
      EXPECT_EQ(forward.difficulty, std::exp(-16.0 * std::fabs(forward.evidence)))
          << si << " vs " << other;
      EXPECT_EQ(sign(forward.evidence), -sign(swapped.evidence)) << si << " vs " << other;
    }
  }
}

TEST(Rater, RateVideoAddsBiasAndClamps) {
  Rng rng(1);
  Participant participant = attentive_participant();
  participant.rating_bias = 200.0;  // absurd bias must clamp at 70
  EXPECT_DOUBLE_EQ(
      rate_video(rating_stimulus(video_with_si(1000)), Context::kWork, participant, rng), 70.0);
}

TEST(Rater, AbVotePrefersClearlyFasterVideo) {
  Rng rng(2);
  const Participant participant = attentive_participant();
  int first_votes = 0;
  for (int i = 0; i < 100; ++i) {
    const auto vote = ab_vote(pair_with_si(1000, 2000), participant, rng);
    first_votes += vote.choice == AbChoice::kFirst;
  }
  EXPECT_GT(first_votes, 95);
}

TEST(Rater, AbVoteMostlyNoDifferenceWhenIdentical) {
  Rng rng(2);
  const Participant participant = attentive_participant();
  int no_diff = 0;
  for (int i = 0; i < 100; ++i) {
    const auto vote = ab_vote(pair_with_si(1500, 1500), participant, rng);
    no_diff += vote.choice == AbChoice::kNoDifference;
  }
  EXPECT_GT(no_diff, 90);
}

TEST(Rater, AbVoteSymmetry) {
  Rng rng(3);
  const Participant participant = attentive_participant();
  int second_votes = 0;
  for (int i = 0; i < 100; ++i) {
    const auto vote = ab_vote(pair_with_si(2000, 1000), participant, rng);
    second_votes += vote.choice == AbChoice::kSecond;
  }
  EXPECT_GT(second_votes, 95);
}

TEST(Rater, ConfidenceHigherForLargerDifferences) {
  Rng rng(4);
  const Participant participant = attentive_participant();
  double confidence_small = 0.0;
  double confidence_large = 0.0;
  for (int i = 0; i < 200; ++i) {
    confidence_small += ab_vote(pair_with_si(1500, 1600), participant, rng).confidence;
    confidence_large += ab_vote(pair_with_si(1000, 3000), participant, rng).confidence;
  }
  EXPECT_GT(confidence_large, confidence_small);
}

TEST(Rater, MoreReplaysWhenDifferenceIsSubtle) {
  Rng rng(5);
  const Participant participant = attentive_participant();
  double replays_subtle = 0.0;
  double replays_obvious = 0.0;
  for (int i = 0; i < 300; ++i) {
    replays_subtle += ab_vote(pair_with_si(1500, 1550), participant, rng).replays;
    replays_obvious += ab_vote(pair_with_si(1000, 4000), participant, rng).replays;
  }
  EXPECT_GT(replays_subtle, replays_obvious * 2);
}

TEST(Participants, GroupParamsOrdered) {
  EXPECT_LT(params_for(Group::kLab).vote_noise_sd,
            params_for(Group::kMicroworker).vote_noise_sd);
  EXPECT_LT(params_for(Group::kMicroworker).vote_noise_sd,
            params_for(Group::kInternet).vote_noise_sd);
  EXPECT_DOUBLE_EQ(params_for(Group::kLab).cheater_fraction, 0.0);
  EXPECT_GT(params_for(Group::kInternet).cheater_fraction,
            params_for(Group::kMicroworker).cheater_fraction);
}

TEST(Participants, SamplingRespectsGroup) {
  Rng rng(6);
  int lab_cheaters = 0;
  int internet_cheaters = 0;
  for (int i = 0; i < 500; ++i) {
    lab_cheaters += sample_participant(Group::kLab, rng).cheater;
    internet_cheaters += sample_participant(Group::kInternet, rng).cheater;
  }
  EXPECT_EQ(lab_cheaters, 0);
  EXPECT_GT(internet_cheaters, 40);
}

TEST(Conformance, RuleNamesAndDescriptions) {
  EXPECT_EQ(rule_name(0), "R1");
  EXPECT_EQ(rule_name(6), "R7");
  EXPECT_EQ(rule_description(2), "focus loss > 10 s");
}

TEST(Conformance, LabIsNeverFiltered) {
  const auto funnel = simulate_funnel(Group::kLab, StudyKind::kAb, 35, Rng(7));
  EXPECT_EQ(funnel.initial, 35u);
  EXPECT_EQ(funnel.final_count(), 35u);
}

TEST(Conformance, MicroworkerFunnelMatchesTable3Shape) {
  // Table 3 (A/B): 487 -> 233; (rating): 1563 -> 614. Allow sampling slack.
  const auto ab = simulate_funnel(Group::kMicroworker, StudyKind::kAb, 487, Rng(8));
  EXPECT_NEAR(static_cast<double>(ab.final_count()), 233.0, 40.0);
  // Survivor counts must be non-increasing.
  std::size_t previous = ab.initial;
  for (const auto count : ab.after_rule) {
    EXPECT_LE(count, previous);
    previous = count;
  }
  const auto rating =
      simulate_funnel(Group::kMicroworker, StudyKind::kRating, 1563, Rng(9));
  EXPECT_NEAR(static_cast<double>(rating.final_count()), 614.0, 80.0);
}

TEST(Conformance, R3AndR4RemoveTheMostCrowdResults) {
  // §4.1: "Focus loss (R3) and voting before the FVC (R4) filtered the most."
  const auto funnel =
      simulate_funnel(Group::kMicroworker, StudyKind::kRating, 3000, Rng(10));
  std::array<std::size_t, kRuleCount> removed{};
  std::size_t previous = funnel.initial;
  for (std::size_t rule = 0; rule < kRuleCount; ++rule) {
    removed[rule] = previous - funnel.after_rule[rule];
    previous = funnel.after_rule[rule];
  }
  const auto max_removed = *std::max_element(removed.begin(), removed.end());
  EXPECT_TRUE(removed[2] == max_removed || removed[3] == max_removed);
}

TEST(Conformance, PaperCohortSizes) {
  EXPECT_EQ(paper_initial_cohort(Group::kLab, StudyKind::kAb), 35u);
  EXPECT_EQ(paper_initial_cohort(Group::kMicroworker, StudyKind::kAb), 487u);
  EXPECT_EQ(paper_initial_cohort(Group::kMicroworker, StudyKind::kRating), 1563u);
  EXPECT_EQ(paper_initial_cohort(Group::kInternet, StudyKind::kRating), 209u);
}

TEST(AbPairs, MatchFigure4) {
  const auto& pairs = ab_pairs();
  ASSERT_EQ(pairs.size(), 4u);
  EXPECT_EQ(pairs[0], (std::pair<std::string, std::string>{"TCP+", "TCP"}));
  EXPECT_EQ(pairs[1], (std::pair<std::string, std::string>{"QUIC", "TCP"}));
  EXPECT_EQ(pairs[2], (std::pair<std::string, std::string>{"QUIC", "TCP+"}));
  EXPECT_EQ(pairs[3], (std::pair<std::string, std::string>{"QUIC+BBR", "TCP+BBR"}));
}

TEST(AbAggregate, SharesSumToOne) {
  AbAggregate aggregate;
  aggregate.prefer_first = 10;
  aggregate.no_difference = 30;
  aggregate.prefer_second = 10;
  EXPECT_DOUBLE_EQ(
      aggregate.share_first() + aggregate.share_no_difference() + aggregate.share_second(),
      1.0);
  EXPECT_DOUBLE_EQ(AbAggregate{}.share_first(), 0.0);
}

// Small end-to-end study runs over a reduced library (lab domains, few runs)
// keep the suite fast while exercising the full pipeline.
core::VideoLibrary& small_library() {
  static core::VideoLibrary library(7, 5);
  return library;
}

/// A lab-domain study of `participants` on the engine, keeping every vote
/// (A/B participants see 28 pairs, raters the 11+11+5 blocks).
population::Report run_study(StudyKind kind, Group group, std::uint64_t participants,
                             std::uint64_t seed) {
  population::StudySpec spec;
  spec.kind = kind;
  spec.group = group;
  spec.participants = participants;
  spec.seed = seed;
  spec.sites = 5;
  spec.video_runs = 5;
  spec.videos_ab = 28;
  population::RunOptions options;
  options.keep_votes = true;
  return population::run_streaming_study(small_library(), spec, options);
}

/// A/B votes folded per network over all pairs.
std::map<net::NetworkKind, AbAggregate> ab_by_network(const population::Report& report) {
  std::map<net::NetworkKind, AbAggregate> cells;
  for (const auto& vote : report.votes) {
    cells[vote.video->network].add(vote.choice, vote.replays, vote.confidence);
  }
  return cells;
}

TEST(AbStudyDriver, RunsAndAggregates) {
  const auto report = run_study(StudyKind::kAb, Group::kLab, 20, 11);
  EXPECT_EQ(report.accumulator.survivors, 20u);
  std::uint64_t total_votes = 0;
  double seconds = 0.0;
  for (const auto& [network, cell] : ab_by_network(report)) total_votes += cell.total();
  for (const auto& vote : report.votes) seconds += vote.seconds;
  EXPECT_EQ(total_votes, 20u * 28u);
  EXPECT_GT(seconds / static_cast<double>(report.votes.size()), 5.0);
}

TEST(AbStudyDriver, SlowNetworksGetMoreDecidedVotes) {
  const auto report = run_study(StudyKind::kAb, Group::kLab, 60, 12);
  // Decided share on DSL vs MSS over all pairs.
  const auto cells = ab_by_network(report);
  const AbAggregate& dsl = cells.at(net::NetworkKind::kDsl);
  const AbAggregate& mss = cells.at(net::NetworkKind::kMss);
  ASSERT_GT(dsl.total(), 0u);
  ASSERT_GT(mss.total(), 0u);
  EXPECT_GT(mss.share_first() + mss.share_second(), dsl.share_first() + dsl.share_second());
}

TEST(RatingStudyDriver, RunsAndCollectsVotes) {
  const auto report = run_study(StudyKind::kRating, Group::kLab, 15, 13);
  EXPECT_EQ(report.accumulator.survivors, 15u);
  for (const auto& vote : report.votes) {
    EXPECT_GE(vote.rating, 10.0);
    EXPECT_LE(vote.rating, 70.0);
  }
  EXPECT_EQ(report.votes.size(), 15u * (11 + 11 + 5));
}

TEST(RatingStudyDriver, PlaneConditionsRatePoor) {
  const auto report = run_study(StudyKind::kRating, Group::kLab, 25, 14);
  std::vector<double> plane_votes;
  std::vector<double> fast_votes;
  for (const auto& vote : report.votes) {
    (vote.context == Context::kPlane ? plane_votes : fast_votes).push_back(vote.rating);
  }
  ASSERT_FALSE(plane_votes.empty());
  ASSERT_FALSE(fast_votes.empty());
  EXPECT_LT(stats::mean(plane_votes), stats::mean(fast_votes) - 10.0);
}

TEST(RatingStudyDriver, VotesCorrelateNegativelyWithSpeedIndex) {
  // Figure-6 property at lab scale: per-site mean votes vs the SI of the
  // video shown must correlate negatively.
  const auto report = run_study(StudyKind::kRating, Group::kMicroworker, 150, 15);
  std::map<std::pair<const core::Video*, Context>, std::vector<double>> votes_by_site;
  for (const auto& vote : report.votes) {
    votes_by_site[{vote.video, vote.context}].push_back(vote.rating);
  }

  std::vector<double> si_values;
  std::vector<double> vote_means;
  for (const auto& [key, votes] : votes_by_site) {
    if (votes.size() < 5) continue;
    si_values.push_back(key.first->metrics.si_ms());
    vote_means.push_back(stats::mean(votes));
  }
  ASSERT_GT(si_values.size(), 20u);
  EXPECT_LT(stats::pearson(si_values, vote_means), -0.6);
}

TEST(AbStudyDriver, ConfidenceTracksNetworkDifficulty) {
  // Confidence should be higher where differences are easy to spot (slow
  // networks) than on DSL.
  const auto report = run_study(StudyKind::kAb, Group::kLab, 40, 16);
  const auto cells = ab_by_network(report);
  const AbAggregate& dsl = cells.at(net::NetworkKind::kDsl);
  const AbAggregate& mss = cells.at(net::NetworkKind::kMss);
  ASSERT_GT(dsl.total(), 0u);
  ASSERT_GT(mss.total(), 0u);
  EXPECT_GT(mss.confidence_sum / static_cast<double>(mss.total()),
            dsl.confidence_sum / static_cast<double>(dsl.total()));
}

TEST(NetworksForContext, MatchStudyDesign) {
  EXPECT_EQ(networks_for_context(Context::kWork),
            (std::vector<net::NetworkKind>{net::NetworkKind::kDsl, net::NetworkKind::kLte}));
  EXPECT_EQ(networks_for_context(Context::kPlane),
            (std::vector<net::NetworkKind>{net::NetworkKind::kDa2gc, net::NetworkKind::kMss}));
}

TEST(Conformance, FunnelDrawsAreIdentityDerivedNotOrderDependent) {
  // Regression for the streaming rebuild: each participant's traits and
  // violation draws come from rng.fork(i + 1) — a pure function of the
  // funnel seed and the participant's index — never from how many draws
  // earlier participants consumed. Recomputing the removal tallies by
  // visiting the indices in REVERSE order must reproduce simulate_funnel's
  // counts exactly.
  const Rng base(8);
  const auto funnel = simulate_funnel(Group::kMicroworker, StudyKind::kRating, 400, base);
  std::array<std::size_t, kRuleCount> expected_removed{};
  std::size_t previous = funnel.initial;
  for (std::size_t rule = 0; rule < kRuleCount; ++rule) {
    expected_removed[rule] = previous - funnel.after_rule[rule];
    previous = funnel.after_rule[rule];
  }

  std::array<std::size_t, kRuleCount> reversed_removed{};
  for (std::size_t i = 400; i-- > 0;) {
    Rng participant_rng = base.fork(i + 1);
    const Participant participant =
        sample_participant(Group::kMicroworker, participant_rng);
    if (const auto rule =
            sample_violation(StudyKind::kRating, participant, participant_rng)) {
      ++reversed_removed[*rule];
    }
  }
  EXPECT_EQ(reversed_removed, expected_removed);
}

}  // namespace
}  // namespace qperc::study
