// The participant loop: every user study in qperc runs here.
//
// One loop serves both the paper-size cohorts behind Figures 3-6 and
// population-scale cohorts the paper could not recruit (what effects WOULD
// a much larger cohort resolve?). Each participant goes through the same
// pipeline — traits -> R1..R7 conformance funnel -> video assignment ->
// rater model — and every vote is folded as it is drawn:
//
//   * Participants are never stored. Participant `id` draws from
//     Rng(seed).fork("ab-study"|"rating-study").fork(group).fork(id + 1): a
//     pure function of (spec, id), so the draws do not depend on thread,
//     shard, block size, or enumeration order.
//   * Votes fold into fixed-size accumulators (stats::ExactMoments — integer
//     fixed-point count/sum/sum-of-squares). Memory is O(cells), not O(N).
//     A run may also keep one VoteRecord per vote (RunOptions::keep_votes),
//     for the figures that need raw votes; that costs O(votes).
//   * Stimuli are the per-condition Videos of core::VideoLibrary, produced
//     by a campaign (runner::run_campaign) and adopted from its store; the
//     trial simulation cost is paid once per condition and amortised over
//     every participant. So are the rater's perceptual constants: each pool
//     entry carries its study::RatingStimulus (or, for an A/B pair, one
//     study::PairStimulus per screen order), computed once when the pools
//     are built, and a vote only adds the participant's draws to them.
//
// Determinism contract: the accumulated numbers — and therefore the bytes
// of write_report — are a pure function of the StudySpec. Job count, block
// size, shard layout, checkpoint/resume cycles, and merge order never change
// them, because every per-cell statistic is integer arithmetic (commutative
// and associative exactly, not merely to rounding). Tests assert byte
// identity across --jobs 1 vs 8 and across shard splits merged in any order.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/video.hpp"
#include "net/profile.hpp"
#include "stats/streaming.hpp"
#include "study/conformance.hpp"
#include "study/participant.hpp"
#include "study/rater.hpp"

namespace qperc::population {

/// Everything that determines the study's results. Execution knobs (jobs,
/// sharding, checkpointing) live in RunOptions and never affect the numbers.
struct StudySpec {
  study::StudyKind kind = study::StudyKind::kRating;
  study::Group group = study::Group::kMicroworker;
  std::uint64_t participants = 0;
  std::uint64_t seed = 7;
  /// Stimulus site budget: the first `sites` catalog entries (the paper grid
  /// is 36; the first five are the lab's five domains, in order).
  std::size_t sites = 36;
  /// Trials per cached condition video (the paper records >= 31). Part of
  /// the identity: the CLI builds the VideoLibrary from (seed, video_runs),
  /// so checkpoints taken against different stimuli refuse to mix.
  std::uint32_t video_runs = 31;
  /// Rating study: videos per context block (paper: 11+11+5).
  std::size_t videos_work = 11;
  std::size_t videos_free_time = 11;
  std::size_t videos_plane = 5;
  /// A/B study: video pairs per participant (paper: 26 for the crowd).
  std::size_t videos_ab = 26;
  /// Optional link-condition overlay applied to every condition's profile
  /// (variable-rate downlink trace, token-bucket policer). Part of the
  /// identity: the VideoLibrary must be built with the same overlay, and
  /// checkpoints taken under different conditions refuse to mix.
  net::LinkConditions conditions{};

  /// Throws std::invalid_argument with an actionable message.
  void validate() const;
  /// Stable identity hash; checkpoints refuse to resume a different study.
  [[nodiscard]] std::uint64_t fingerprint() const;
};

/// One rating cell (protocol, network, context) — one bar of Figure 5,
/// streamed. The label fields are fixed by the layout; only `votes` counts.
struct RatingCell {
  std::string protocol;
  net::NetworkKind network = net::NetworkKind::kDsl;
  study::Context context = study::Context::kWork;
  stats::ExactMoments votes;
};

/// One A/B cell (pair, network) — one bar group of Figure 4, streamed.
/// Integer-only state so merges are exact.
struct AbCell {
  std::size_t pair_index = 0;
  net::NetworkKind network = net::NetworkKind::kDsl;
  std::uint64_t prefer_first = 0;
  std::uint64_t no_difference = 0;
  std::uint64_t prefer_second = 0;
  std::uint64_t replays = 0;
  /// Sum of per-vote confidence, quantised at stats::ExactMoments::kScale.
  std::int64_t confidence_q = 0;

  [[nodiscard]] std::uint64_t total() const {
    return prefer_first + no_difference + prefer_second;
  }
};

/// The whole study state: O(1) in the participant count. Merging is plain
/// integer addition per field, so it is commutative and associative exactly
/// — any grouping of blocks into shards, merged in any order, produces the
/// same bits (as campaign totals of net::TransportStats do).
struct Accumulator {
  std::uint64_t participants = 0;
  std::uint64_t survivors = 0;
  std::uint64_t votes = 0;
  std::array<std::uint64_t, study::kRuleCount> removed_at{};
  /// Seconds spent per video across all shown videos.
  stats::ExactMoments seconds;
  /// Rating layout: context-major, then protocol, then network; empty for
  /// A/B studies. Use make_accumulator for the canonical layout.
  std::vector<RatingCell> rating_cells;
  /// A/B layout: pair-major, then network; empty for rating studies.
  std::vector<AbCell> ab_cells;

  /// Requires an identical cell layout (same spec kind).
  void merge(const Accumulator& other);
  /// Zeroes all counts, keeping the cell layout (for buffer reuse).
  void reset_counts();
};

/// Builds the empty accumulator with the canonical cell layout for a study
/// kind. All accumulators that ever merge must come from this function.
[[nodiscard]] Accumulator make_accumulator(study::StudyKind kind);

/// One vote as the engine drew it: what the figures need beyond per-cell
/// sums (medians, ANOVA, per-site means, a per-vote CSV).
struct VoteRecord {
  /// The stimulus: the rated video, or the first video of an A/B pair (its
  /// site and network). Points into the VideoLibrary the study ran against.
  const core::Video* video = nullptr;
  /// A/B: index into study::ab_pairs().
  std::size_t pair_index = 0;
  /// Rating: the context block the video was shown in.
  study::Context context = study::Context::kWork;
  /// Rating: the vote on the 10..70 scale.
  double rating = 0.0;
  /// A/B: the answer in pair order (first = the pair's first protocol).
  study::AbChoice choice = study::AbChoice::kNoDifference;
  std::uint32_t replays = 0;
  double confidence = 0.0;
  /// Seconds the participant spent on this video.
  double seconds = 0.0;

  friend bool operator==(const VoteRecord&, const VoteRecord&) = default;
};

/// Throttled progress snapshot for operator display.
struct Progress {
  /// Participants owned by this shard.
  std::uint64_t participants_total = 0;
  /// Processed so far, including blocks restored from a checkpoint.
  std::uint64_t participants_done = 0;
  std::uint64_t resumed_participants = 0;
  double elapsed_seconds = 0.0;
  /// Fresh-work rate this run (resumed blocks excluded).
  double participants_per_second = 0.0;
  double eta_seconds = 0.0;
};

/// Execution knobs. None of these change the accumulated numbers.
struct RunOptions {
  /// Worker threads; 0 = one per hardware thread.
  unsigned jobs = 0;
  /// This process handles blocks with index % shard_count == shard_index.
  unsigned shard_index = 0;
  unsigned shard_count = 1;
  /// Participants per work block (the unit of scheduling and checkpointing).
  std::uint64_t block_size = 8192;
  /// Stop after this many fresh blocks (0 = run to completion). Gives tests
  /// a deterministic "interrupted" state, like campaign --max-tasks.
  std::uint64_t max_blocks = 0;
  /// Durable checkpoint file; empty = no durability.
  std::string checkpoint_path;
  /// Blocks between automatic checkpoints.
  std::uint64_t checkpoint_every_blocks = 64;
  /// Load an existing checkpoint (same spec fingerprint + shard geometry)
  /// and continue; without this an existing file is overwritten.
  bool resume = false;
  /// Also keep one VoteRecord per vote in Report::votes. Records are not
  /// checkpointed, so a run that keeps them cannot resume.
  bool keep_votes = false;
  std::function<void(const Progress&)> on_progress;

  void validate() const;
};

struct Report {
  Accumulator accumulator;
  /// With RunOptions::keep_votes: every vote of this shard, in participant-id
  /// order (so independent of the job count).
  std::vector<VoteRecord> votes;
  /// Blocks this shard owns / has completed (cumulative, incl. resumed).
  std::uint64_t owned_blocks = 0;
  std::uint64_t blocks_done = 0;
  std::uint64_t resumed_blocks = 0;
  double elapsed_seconds = 0.0;
  [[nodiscard]] bool complete() const { return blocks_done == owned_blocks; }
};

/// Blocks a shard owns when `participants` are cut into `block_size` blocks
/// dealt out by index % shard_count.
[[nodiscard]] std::uint64_t owned_blocks(std::uint64_t participants, std::uint64_t block_size,
                                         unsigned shard_index, unsigned shard_count);

/// Runs (this shard of) the streaming study against a shared video library.
/// Every stimulus is read through library.get on entry (and its perceptual
/// constants computed), which simulates a condition the library lacks one
/// at a time: adopt a campaign's results (runner::adopt_results) first to
/// pay stimulus production in parallel and once. Workers then only read the
/// stimuli. Throws on invalid spec/options
/// or unwritable checkpoint.
Report run_streaming_study(core::VideoLibrary& library, const StudySpec& spec,
                           const RunOptions& options = {});

/// Canonical machine-readable export — the bytes the determinism tests
/// compare. Integer accumulator state is printed verbatim; derived
/// statistics (means, CIs, Welch tests, minimum detectable effects) at full
/// precision, so equal state implies equal bytes.
void write_report(std::ostream& os, const StudySpec& spec, const Accumulator& acc);

/// Short identifier tokens used in reports and checkpoint filenames.
[[nodiscard]] std::string_view kind_token(study::StudyKind kind);
[[nodiscard]] std::string_view context_token(study::Context context);

}  // namespace qperc::population
