// Perceptual rating models: how a simulated participant turns a loading
// "video" into a 10..70 quality vote (Study 2) or an A/B choice (Study 1).
#pragma once

#include <array>
#include <cstdint>

#include "core/video.hpp"
#include "study/participant.hpp"
#include "util/rng.hpp"

namespace qperc::study {

/// Perceived duration of a loading process, in seconds: a geometric blend of
/// the visual metrics, dominated by the Speed Index. (Human speed perception
/// follows the visual progress of the page, not the onload event — this is
/// why the paper finds SI correlating best and PLT worst, Figure 6.)
[[nodiscard]] double perceived_duration_seconds(const browser::PageMetrics& metrics);

/// Deterministic part of the rating model (no bias/noise).
[[nodiscard]] double ideal_rating(const browser::PageMetrics& metrics, Context context);

/// What the rating model reads of one video. It depends on the video alone,
/// never on the participant, so a study computes it once per stimulus and
/// every vote on that video reuses it.
struct RatingStimulus {
  /// ideal_rating(video.metrics, context), indexed by Context.
  std::array<double, 3> ideal{};
  /// The site's content-appeal offset (rating points).
  double appeal = 0.0;
};

[[nodiscard]] RatingStimulus rating_stimulus(const core::Video& video);

/// Absolute quality rating on the paper's seven-point linear 10..70 scale
/// (extremely bad .. ideal), via a Weber–Fechner law with context-dependent
/// tolerance plus participant bias/noise. Cheaters answer uniformly.
[[nodiscard]] double rate_video(const RatingStimulus& stimulus, Context context,
                                const Participant& participant, Rng& rng);

enum class AbChoice { kFirst, kNoDifference, kSecond };

struct AbVote {
  AbChoice choice = AbChoice::kNoDifference;
  /// Self-reported confidence in [0, 1].
  double confidence = 0.0;
  /// How often the participant replayed the clip.
  std::uint32_t replays = 0;
};

/// What the A/B model reads of two videos shown side by side, in screen
/// order. Like RatingStimulus it is computed once per stimulus; each screen
/// order of a pair is its own stimulus (pair_stimulus(second, first)).
struct PairStimulus {
  /// Log ratio of floor-shifted perceived durations; positive => the first
  /// video is faster.
  double evidence = 0.0;
  /// exp(-16 |evidence|): near 1 for a hard call, which drives replays.
  double difficulty = 0.0;
};

[[nodiscard]] PairStimulus pair_stimulus(const core::Video& first, const core::Video& second);

/// Just-noticeable-difference vote between two videos shown side by side.
[[nodiscard]] AbVote ab_vote(const PairStimulus& pair, const Participant& participant,
                             Rng& rng);

/// A/B votes folded for one Figure-4 cell (or one of its sites).
struct AbAggregate {
  std::uint64_t prefer_first = 0;
  std::uint64_t no_difference = 0;
  std::uint64_t prefer_second = 0;
  double replay_sum = 0.0;
  double confidence_sum = 0.0;

  void add(AbChoice choice, std::uint32_t replays, double confidence) {
    if (choice == AbChoice::kFirst) {
      ++prefer_first;
    } else if (choice == AbChoice::kSecond) {
      ++prefer_second;
    } else {
      ++no_difference;
    }
    replay_sum += replays;
    confidence_sum += confidence;
  }
  [[nodiscard]] std::uint64_t total() const {
    return prefer_first + no_difference + prefer_second;
  }
  [[nodiscard]] double share_first() const {
    return total() ? static_cast<double>(prefer_first) / static_cast<double>(total()) : 0.0;
  }
  [[nodiscard]] double share_no_difference() const {
    return total() ? static_cast<double>(no_difference) / static_cast<double>(total()) : 0.0;
  }
  [[nodiscard]] double share_second() const {
    return total() ? static_cast<double>(prefer_second) / static_cast<double>(total()) : 0.0;
  }
  [[nodiscard]] double avg_replays() const {
    return total() ? replay_sum / static_cast<double>(total()) : 0.0;
  }
};

}  // namespace qperc::study
