#include "population/population_study.hpp"

// qperc-lint: allow-file(wall-clock) operator-facing progress/ETA display and
// the Report's elapsed_seconds only; wall time never reaches participant
// sampling, vote generation, or the accumulated numbers.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "core/protocol.hpp"
#include "population/checkpoint.hpp"
#include "runner/executor.hpp"
#include "util/check.hpp"
#include "web/website.hpp"

namespace qperc::population {
namespace {

/// Cells per context block: |paper_protocols| x |networks_for_context|.
constexpr std::size_t kRatingCellsPerContext = 5 * 2;

constexpr std::array<study::Context, 3> kContexts = {
    study::Context::kWork, study::Context::kFreeTime, study::Context::kPlane};

std::size_t rating_cell_base(study::Context context) {
  return static_cast<std::size_t>(context) * kRatingCellsPerContext;
}

/// One rating stimulus: a cached video, the rater's constants for it, and
/// its position in the cell grid. The same entry serves the work and
/// free-time contexts (they share the DSL/LTE networks); the cell index is
/// context-rebased at vote time.
struct RatingEntry {
  const core::Video* video = nullptr;
  study::RatingStimulus stimulus;
  std::uint16_t protocol = 0;  // index into core::paper_protocols()
  std::uint16_t net_slot = 0;  // index into networks_for_context(context)
};

/// One A/B stimulus pair with the rater's constants for both screen orders
/// and its pair and cell index.
struct AbEntry {
  const core::Video* first = nullptr;
  const core::Video* second = nullptr;
  study::PairStimulus forward;  // first shown on the left
  study::PairStimulus swapped;  // second shown on the left
  std::uint32_t pair = 0;  // index into study::ab_pairs()
  std::uint32_t cell = 0;
};

struct Pools {
  std::vector<RatingEntry> fast;   // work/free-time contexts (DSL, LTE)
  std::vector<RatingEntry> plane;  // plane context (DA2GC, MSS)
  std::vector<AbEntry> ab;
};

/// Per-worker-slot reusable state: the partial Fisher–Yates order buffer.
/// Reserved for the largest pool before the first round, so no round
/// allocates, whichever slots it uses.
struct Scratch {
  std::vector<std::uint32_t> order;
};

/// Everything a worker needs, all read-only during the run.
struct EngineContext {
  const StudySpec* spec = nullptr;
  const Pools* pools = nullptr;
  const study::GroupParams* params = nullptr;
  /// Participant `id` draws from root.fork(id + 1). The root is
  /// Rng(seed).fork("ab-study"|"rating-study").fork(group), which
  /// decorrelates studies that share a master seed but differ in kind or
  /// group.
  Rng root{0};
};

std::vector<std::string> stimulus_sites(const core::VideoLibrary& library,
                                        const StudySpec& spec) {
  std::vector<std::string> names;
  names.reserve(spec.sites);
  for (const auto& site : library.catalog()) {
    if (names.size() >= spec.sites) break;
    names.push_back(site.name);
  }
  return names;
}

Pools build_pools(core::VideoLibrary& library, const StudySpec& spec) {
  const std::vector<std::string> sites = stimulus_sites(library, spec);

  // Every stimulus is read here, before any worker starts (get() computes a
  // condition the library lacks); afterwards the library is read-only and
  // safe to share, and std::map never moves an element, so the Video
  // pointers below stay stable. The rater's per-stimulus constants are
  // computed here too, once per entry rather than once per vote.
  Pools pools;
  if (spec.kind == study::StudyKind::kRating) {
    const auto fill = [&](std::vector<RatingEntry>& pool, study::Context context) {
      const auto& context_networks = study::networks_for_context(context);
      pool.reserve(sites.size() * core::paper_protocols().size() * context_networks.size());
      for (const auto& site : sites) {
        for (std::size_t p = 0; p < core::paper_protocols().size(); ++p) {
          for (std::size_t slot = 0; slot < context_networks.size(); ++slot) {
            const core::Video& video =
                library.get(site, core::paper_protocols()[p].name, context_networks[slot]);
            pool.push_back(RatingEntry{&video, study::rating_stimulus(video),
                                       static_cast<std::uint16_t>(p),
                                       static_cast<std::uint16_t>(slot)});
          }
        }
      }
    };
    fill(pools.fast, study::Context::kWork);
    fill(pools.plane, study::Context::kPlane);
  } else {
    pools.ab.reserve(study::ab_pairs().size() * net::all_profiles().size() * sites.size());
    for (std::size_t p = 0; p < study::ab_pairs().size(); ++p) {
      const auto& [proto_a, proto_b] = study::ab_pairs()[p];
      for (std::size_t slot = 0; slot < net::all_profiles().size(); ++slot) {
        const net::NetworkKind network = net::all_profiles()[slot].kind;
        for (const auto& site : sites) {
          const core::Video& first = library.get(site, proto_a, network);
          const core::Video& second = library.get(site, proto_b, network);
          pools.ab.push_back(AbEntry{
              &first, &second, study::pair_stimulus(first, second),
              study::pair_stimulus(second, first), static_cast<std::uint32_t>(p),
              static_cast<std::uint32_t>(p * net::all_profiles().size() + slot)});
        }
      }
    }
  }
  return pools;
}

/// Draws `shown` distinct pool indices via a partial Fisher–Yates shuffle.
template <typename Entry, typename Visit>
void sample_without_replacement(const std::vector<Entry>& pool, std::size_t shown,
                                Scratch& scratch, Rng& rng, const Visit& visit) {
  auto& order = scratch.order;
  order.resize(pool.size());
  std::iota(order.begin(), order.end(), std::uint32_t{0});
  shown = std::min(shown, pool.size());
  for (std::size_t k = 0; k < shown; ++k) {
    const auto j = static_cast<std::size_t>(rng.uniform_int(
        static_cast<std::int64_t>(k), static_cast<std::int64_t>(order.size() - 1)));
    std::swap(order[k], order[j]);
    visit(pool[order[k]]);
  }
}

/// Where simulate_one sends each vote besides the accumulator. A streaming
/// run drops them (the empty call compiles away); a run that keeps votes
/// appends them to its block's records.
struct DropVotes {
  void operator()(const VoteRecord& /*vote*/) const {}
};
struct KeepVotes {
  std::vector<VoteRecord>* records = nullptr;
  void operator()(const VoteRecord& vote) const { records->push_back(vote); }
};

/// Simulates one participant end to end: traits, conformance funnel, and —
/// for survivors — every vote, folded straight into `acc` and handed to
/// `keep`. A pure function of (ctx.root, id): no shared mutable state, and
/// with DropVotes no allocation. Kept out of line: it is the
/// study-participant root of scripts/analyze_hotpath.py.
template <typename VoteSink>
__attribute__((noinline)) void simulate_one(const EngineContext& ctx, std::uint64_t id,
                                            Scratch& scratch, Accumulator& acc,
                                            const VoteSink& keep) {
  Rng rng = ctx.root.fork(id + 1);
  const study::Enrolment enrolment = study::enrol(ctx.spec->group, ctx.spec->kind, rng);
  ++acc.participants;
  if (enrolment.violation) {
    ++acc.removed_at[*enrolment.violation];
    return;
  }
  ++acc.survivors;
  const study::Participant& participant = enrolment.participant;

  if (ctx.spec->kind == study::StudyKind::kRating) {
    const std::array<std::pair<study::Context, std::size_t>, 3> blocks = {
        std::pair{study::Context::kWork, ctx.spec->videos_work},
        std::pair{study::Context::kFreeTime, ctx.spec->videos_free_time},
        std::pair{study::Context::kPlane, ctx.spec->videos_plane},
    };
    for (const auto& [context, count] : blocks) {
      const auto& pool =
          context == study::Context::kPlane ? ctx.pools->plane : ctx.pools->fast;
      const std::size_t base = rating_cell_base(context);
      sample_without_replacement(pool, count, scratch, rng, [&](const RatingEntry& entry) {
        const double vote = study::rate_video(entry.stimulus, context, participant, rng);
        const double seconds = rng.normal(ctx.params->seconds_per_video_rating, 3.0);
        acc.rating_cells[base + entry.protocol * 2 + entry.net_slot].votes.push(vote);
        acc.seconds.push(seconds);
        ++acc.votes;
        keep(VoteRecord{
            .video = entry.video, .context = context, .rating = vote, .seconds = seconds});
      });
    }
    return;
  }

  sample_without_replacement(
      ctx.pools->ab, ctx.spec->videos_ab, scratch, rng, [&](const AbEntry& entry) {
        // Left/right randomisation; map the answer back to the pair order.
        const bool swapped = rng.bernoulli(0.5);
        const study::AbVote vote =
            study::ab_vote(swapped ? entry.swapped : entry.forward, participant, rng);
        study::AbChoice choice = vote.choice;
        if (swapped) {
          if (choice == study::AbChoice::kFirst) {
            choice = study::AbChoice::kSecond;
          } else if (choice == study::AbChoice::kSecond) {
            choice = study::AbChoice::kFirst;
          }
        }
        const double seconds = rng.normal(ctx.params->seconds_per_video_ab, 3.0);
        AbCell& cell = acc.ab_cells[entry.cell];
        if (choice == study::AbChoice::kFirst) {
          ++cell.prefer_first;
        } else if (choice == study::AbChoice::kSecond) {
          ++cell.prefer_second;
        } else {
          ++cell.no_difference;
        }
        cell.replays += vote.replays;
        cell.confidence_q +=
            std::llround(vote.confidence * stats::ExactMoments::kScale);
        acc.seconds.push(seconds);
        ++acc.votes;
        keep(VoteRecord{.video = entry.first,
                        .pair_index = entry.pair,
                        .choice = choice,
                        .replays = vote.replays,
                        .confidence = vote.confidence,
                        .seconds = seconds});
      });
}

}  // namespace

void StudySpec::validate() const {
  if (participants == 0) throw std::invalid_argument("study: participants must be >= 1");
  if (sites == 0) throw std::invalid_argument("study: sites must be >= 1");
  if (video_runs == 0) throw std::invalid_argument("study: video runs must be >= 1");
  if (kind == study::StudyKind::kRating) {
    if (videos_work + videos_free_time + videos_plane == 0) {
      throw std::invalid_argument("study: a rating study must show at least one video");
    }
  } else if (videos_ab == 0) {
    throw std::invalid_argument("study: an A/B study must show at least one pair");
  }
}

std::uint64_t StudySpec::fingerprint() const {
  std::ostringstream os;
  os << "qperc-popstudy " << kind_token(kind) << ' ' << study::to_string(group) << ' '
     << participants << ' ' << seed << ' ' << sites << ' ' << video_runs << ' '
     << videos_work << ' ' << videos_free_time << ' ' << videos_plane << ' ' << videos_ab
     << ' ' << conditions.token();
  return fnv1a(os.str());
}

void RunOptions::validate() const {
  if (shard_count == 0) throw std::invalid_argument("study: shard count must be >= 1");
  if (shard_index >= shard_count) {
    throw std::invalid_argument("study: shard index must be < shard count");
  }
  if (block_size == 0) throw std::invalid_argument("study: block size must be >= 1");
  if (checkpoint_every_blocks == 0) {
    throw std::invalid_argument("study: checkpoint interval must be >= 1");
  }
  if (keep_votes && resume) {
    throw std::invalid_argument("study: a run that keeps votes cannot resume");
  }
}

void Accumulator::merge(const Accumulator& other) {
  QPERC_CHECK_EQ(rating_cells.size(), other.rating_cells.size());
  QPERC_CHECK_EQ(ab_cells.size(), other.ab_cells.size());
  participants += other.participants;
  survivors += other.survivors;
  votes += other.votes;
  for (std::size_t rule = 0; rule < study::kRuleCount; ++rule) {
    removed_at[rule] += other.removed_at[rule];
  }
  seconds.merge(other.seconds);
  for (std::size_t i = 0; i < rating_cells.size(); ++i) {
    rating_cells[i].votes.merge(other.rating_cells[i].votes);
  }
  for (std::size_t i = 0; i < ab_cells.size(); ++i) {
    AbCell& cell = ab_cells[i];
    const AbCell& from = other.ab_cells[i];
    cell.prefer_first += from.prefer_first;
    cell.no_difference += from.no_difference;
    cell.prefer_second += from.prefer_second;
    cell.replays += from.replays;
    cell.confidence_q += from.confidence_q;
  }
}

void Accumulator::reset_counts() {
  participants = 0;
  survivors = 0;
  votes = 0;
  removed_at.fill(0);
  seconds = stats::ExactMoments{};
  for (auto& cell : rating_cells) cell.votes = stats::ExactMoments{};
  for (auto& cell : ab_cells) {
    cell.prefer_first = 0;
    cell.no_difference = 0;
    cell.prefer_second = 0;
    cell.replays = 0;
    cell.confidence_q = 0;
  }
}

Accumulator make_accumulator(study::StudyKind kind) {
  Accumulator acc;
  if (kind == study::StudyKind::kRating) {
    acc.rating_cells.reserve(kContexts.size() * kRatingCellsPerContext);
    for (const study::Context context : kContexts) {
      for (const auto& protocol : core::paper_protocols()) {
        for (const net::NetworkKind network : study::networks_for_context(context)) {
          acc.rating_cells.push_back(RatingCell{protocol.name, network, context, {}});
        }
      }
    }
    QPERC_CHECK_EQ(acc.rating_cells.size(), kContexts.size() * kRatingCellsPerContext);
  } else {
    acc.ab_cells.reserve(study::ab_pairs().size() * net::all_profiles().size());
    for (std::size_t p = 0; p < study::ab_pairs().size(); ++p) {
      for (const auto& profile : net::all_profiles()) {
        AbCell cell;
        cell.pair_index = p;
        cell.network = profile.kind;
        acc.ab_cells.push_back(cell);
      }
    }
  }
  return acc;
}

std::string_view kind_token(study::StudyKind kind) {
  return kind == study::StudyKind::kAb ? "ab" : "rating";
}

std::string_view context_token(study::Context context) {
  switch (context) {
    case study::Context::kWork: return "work";
    case study::Context::kFreeTime: return "free";
    case study::Context::kPlane: return "plane";
  }
  return "?";
}

std::uint64_t owned_blocks(std::uint64_t participants, std::uint64_t block_size,
                           unsigned shard_index, unsigned shard_count) {
  const std::uint64_t total = (participants + block_size - 1) / block_size;
  return total > shard_index ? (total - shard_index + shard_count - 1) / shard_count : 0;
}

Report run_streaming_study(core::VideoLibrary& library, const StudySpec& spec,
                           const RunOptions& options) {
  spec.validate();
  options.validate();
  if (library.conditions().token() != spec.conditions.token()) {
    throw std::invalid_argument(
        "study: the VideoLibrary was built under different link conditions than the "
        "spec requests (library '" + library.conditions().token() + "' vs spec '" +
        spec.conditions.token() + "')");
  }

  const Pools pools = build_pools(library, spec);
  EngineContext ctx;
  ctx.spec = &spec;
  ctx.pools = &pools;
  ctx.params = &study::params_for(spec.group);
  ctx.root = Rng(spec.seed)
                 .fork(spec.kind == study::StudyKind::kAb ? "ab-study" : "rating-study")
                 .fork(static_cast<std::uint64_t>(spec.group));

  const std::uint64_t owned = owned_blocks(spec.participants, options.block_size,
                                           options.shard_index, options.shard_count);

  Report report;
  report.owned_blocks = owned;
  Accumulator master = make_accumulator(spec.kind);
  std::uint64_t blocks_done = 0;

  std::optional<StudyStore> store;
  if (!options.checkpoint_path.empty()) {
    store.emplace(options.checkpoint_path, spec.fingerprint(), options.shard_index,
                  options.shard_count, options.block_size);
    if (options.resume && store->load(master, blocks_done)) {
      blocks_done = std::min(blocks_done, owned);
      report.resumed_blocks = blocks_done;
    }
  }
  const std::uint64_t resumed_participants = master.participants;

  std::uint64_t limit = owned;
  if (options.max_blocks != 0 && owned - blocks_done > options.max_blocks) {
    limit = blocks_done + options.max_blocks;
  }

  runner::ExecutorOptions executor_options;
  executor_options.jobs = options.jobs;
  const runner::Executor executor(executor_options);
  const unsigned jobs = executor.resolved_jobs(
      static_cast<std::size_t>(std::max<std::uint64_t>(1, limit - blocks_done)));
  // A round dispatches a few blocks per worker, then folds them into the
  // master in block order on the caller's thread. Per-slot accumulators and
  // scratch buffers are reused across rounds, so the steady state allocates
  // nothing per participant (asserted by the budget test).
  const std::size_t round_size = static_cast<std::size_t>(jobs) * 4;
  std::vector<Accumulator> round_accs;
  round_accs.reserve(round_size);
  for (std::size_t slot = 0; slot < round_size; ++slot) {
    round_accs.push_back(make_accumulator(spec.kind));
  }
  std::vector<Scratch> scratches(round_size);
  for (Scratch& scratch : scratches) {
    scratch.order.reserve(std::max({pools.fast.size(), pools.plane.size(), pools.ab.size()}));
  }
  std::vector<std::vector<VoteRecord>> round_votes(options.keep_votes ? round_size : 0);

  const auto started = std::chrono::steady_clock::now();
  const auto snapshot = [&] {
    Progress progress;
    progress.participants_total = owned * options.block_size;
    progress.participants_done = master.participants;
    progress.resumed_participants = resumed_participants;
    progress.elapsed_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - started).count();
    const double fresh =
        static_cast<double>(master.participants - resumed_participants);
    if (progress.elapsed_seconds > 0.0 && fresh > 0.0) {
      progress.participants_per_second = fresh / progress.elapsed_seconds;
      const double remaining = static_cast<double>(
          progress.participants_total > progress.participants_done
              ? progress.participants_total - progress.participants_done
              : 0);
      progress.eta_seconds = remaining / progress.participants_per_second;
    }
    return progress;
  };

  std::uint64_t since_checkpoint = 0;
  auto last_progress = started;
  while (blocks_done < limit) {
    const std::size_t n_round =
        static_cast<std::size_t>(std::min<std::uint64_t>(round_size, limit - blocks_done));
    for (std::size_t slot = 0; slot < n_round; ++slot) round_accs[slot].reset_counts();
    for (auto& votes : round_votes) votes.clear();
    const auto failures = executor.run(n_round, [&](std::size_t slot) {
      const std::uint64_t ordinal = blocks_done + slot;
      const std::uint64_t block = options.shard_index + ordinal * options.shard_count;
      const std::uint64_t begin = block * options.block_size;
      const std::uint64_t end =
          std::min<std::uint64_t>(spec.participants, begin + options.block_size);
      Scratch& scratch = scratches[slot];
      Accumulator& acc = round_accs[slot];
      if (options.keep_votes) {
        const KeepVotes keep{&round_votes[slot]};
        for (std::uint64_t id = begin; id < end; ++id) simulate_one(ctx, id, scratch, acc, keep);
      } else {
        for (std::uint64_t id = begin; id < end; ++id) {
          simulate_one(ctx, id, scratch, acc, DropVotes{});
        }
      }
    });
    if (!failures.empty()) std::rethrow_exception(failures.front().error);
    // Fold in block order. ExactMoments merges are bit-exact under any
    // order anyway; the fixed order keeps the loop easy to reason about,
    // and it puts the kept votes in participant-id order.
    for (std::size_t slot = 0; slot < n_round; ++slot) {
      master.merge(round_accs[slot]);
      if (options.keep_votes) {
        report.votes.insert(report.votes.end(), round_votes[slot].begin(),
                            round_votes[slot].end());
      }
    }
    blocks_done += n_round;
    since_checkpoint += n_round;

    if (store && since_checkpoint >= options.checkpoint_every_blocks) {
      store->save(master, blocks_done);
      since_checkpoint = 0;
    }
    if (options.on_progress) {
      const auto now = std::chrono::steady_clock::now();
      if (blocks_done >= limit ||
          std::chrono::duration<double>(now - last_progress).count() >= 0.5) {
        options.on_progress(snapshot());
        last_progress = now;
      }
    }
  }
  if (store) store->save(master, blocks_done);

  report.accumulator = std::move(master);
  report.blocks_done = blocks_done;
  report.elapsed_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started).count();
  return report;
}

void write_report(std::ostream& os, const StudySpec& spec, const Accumulator& acc) {
  os.precision(17);
  os << "qperc-popreport-v1\n";
  os << "spec kind=" << kind_token(spec.kind) << " group=" << study::to_string(spec.group)
     << " participants=" << spec.participants << " seed=" << spec.seed
     << " sites=" << spec.sites << " runs=" << spec.video_runs << " videos="
     << spec.videos_work << ',' << spec.videos_free_time << ',' << spec.videos_plane << ','
     << spec.videos_ab << '\n';
  os << "funnel initial=" << acc.participants << " survivors=" << acc.survivors;
  for (std::size_t rule = 0; rule < study::kRuleCount; ++rule) {
    os << ' ' << study::rule_name(rule) << '=' << acc.removed_at[rule];
  }
  os << '\n';
  os << "seconds n=" << acc.seconds.count() << " mean=" << acc.seconds.mean()
     << " stddev=" << acc.seconds.sample_stddev() << '\n';
  os << "votes total=" << acc.votes << '\n';

  for (std::size_t i = 0; i < acc.rating_cells.size(); ++i) {
    const RatingCell& cell = acc.rating_cells[i];
    const auto ci = stats::mean_confidence_interval(cell.votes, 0.99);
    os << "rcell " << i << " protocol=" << cell.protocol
       << " network=" << net::to_string(cell.network)
       << " context=" << context_token(cell.context) << " n=" << cell.votes.count()
       << " sum_q=" << cell.votes.sum_q() << " sumsq_hi=" << cell.votes.sumsq_hi()
       << " sumsq_lo=" << cell.votes.sumsq_lo() << " mean=" << cell.votes.mean()
       << " stddev=" << cell.votes.sample_stddev() << " ci99_half=" << ci.half_width
       << '\n';
  }

  // The headline scaling question: is QUIC rated differently from TCP, and
  // what rating gap could a cohort of a given size resolve? One Welch test
  // per (context, network) cell pair, plus the minimum detectable effect
  // (alpha = 0.05, power = 0.8) at the paper's lab size and beyond.
  if (!acc.rating_cells.empty()) {
    const auto find_cell = [&](std::string_view protocol, net::NetworkKind network,
                               study::Context context) -> const RatingCell* {
      for (const RatingCell& cell : acc.rating_cells) {
        if (cell.protocol == protocol && cell.network == network &&
            cell.context == context) {
          return &cell;
        }
      }
      return nullptr;
    };
    constexpr std::array<std::uint64_t, 3> kMdeSizes = {35, 10000, 10000000};
    for (const study::Context context : kContexts) {
      for (const net::NetworkKind network : study::networks_for_context(context)) {
        const RatingCell* quic = find_cell("QUIC", network, context);
        const RatingCell* tcp = find_cell("TCP", network, context);
        if (quic == nullptr || tcp == nullptr) continue;
        const auto test = stats::welch_t_test(quic->votes, tcp->votes);
        os << "effect context=" << context_token(context)
           << " network=" << net::to_string(network) << " first=QUIC second=TCP"
           << " diff=" << test.difference << " se=" << test.standard_error
           << " t=" << test.t_statistic << " df=" << test.df << " p=" << test.p_value;
        for (const std::uint64_t n : kMdeSizes) {
          os << " mde_n" << n << '='
             << stats::min_detectable_effect(quic->votes.sample_variance(), n,
                                             tcp->votes.sample_variance(), n, 0.05, 0.8);
        }
        os << '\n';
      }
    }
  }

  for (std::size_t i = 0; i < acc.ab_cells.size(); ++i) {
    const AbCell& cell = acc.ab_cells[i];
    const auto& [proto_a, proto_b] = study::ab_pairs()[cell.pair_index];
    const std::uint64_t total = cell.total();
    const double share_first =
        total ? static_cast<double>(cell.prefer_first) / static_cast<double>(total) : 0.0;
    const auto wilson = stats::wilson_interval(cell.no_difference, total, 0.99);
    os << "acell " << i << " pair=" << proto_a << '>' << proto_b
       << " network=" << net::to_string(cell.network) << " first=" << cell.prefer_first
       << " nodiff=" << cell.no_difference << " second=" << cell.prefer_second
       << " replays=" << cell.replays << " confidence_q=" << cell.confidence_q
       << " share_first=" << share_first << " nodiff_wilson99=" << wilson.center << '~'
       << wilson.half_width << '\n';
    // Sign-test flavoured detection check: among decided votes, is the
    // "supposedly faster" side picked more often than chance?
    const auto detect = stats::two_proportion_z_test(cell.prefer_first, total,
                                                     cell.prefer_second, total);
    os << "abtest " << i << " pair=" << proto_a << '>' << proto_b
       << " network=" << net::to_string(cell.network) << " diff=" << detect.difference
       << " se=" << detect.standard_error << " z=" << detect.t_statistic
       << " p=" << detect.p_value << '\n';
  }
}

}  // namespace qperc::population
