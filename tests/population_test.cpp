// Determinism and memory contracts of the population-scale streaming study
// engine: byte-identical exports across job counts, shard layouts (merged in
// any order), block sizes, and checkpoint/resume cycles; O(1) memory in the
// participant count.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/video.hpp"
#include "population/checkpoint.hpp"
#include "population/population_study.hpp"
#include "util/durable_file.hpp"
// Own binary: this TU holds the counting operator new/delete shim (one TU
// per binary), so the O(1)-memory claim is measured, not asserted.
#include "util/alloc_interpose.hpp"

namespace qperc::population {
namespace {

constexpr std::uint64_t kSeed = 7;
constexpr std::uint32_t kRuns = 2;  // cheap stimuli; identity only needs consistency

/// One shared library across all tests: stimulus production (the expensive
/// part) happens once; every run then streams against the warm cache.
core::VideoLibrary& shared_library() {
  static core::VideoLibrary library(kSeed, kRuns);
  return library;
}

StudySpec small_spec(study::StudyKind kind, std::uint64_t participants) {
  StudySpec spec;
  spec.kind = kind;
  spec.group = study::Group::kMicroworker;
  spec.participants = participants;
  spec.seed = kSeed;
  spec.sites = 5;  // lab domains
  spec.video_runs = kRuns;
  return spec;
}

std::string report_bytes(const StudySpec& spec, const Accumulator& acc) {
  std::ostringstream os;
  write_report(os, spec, acc);
  return os.str();
}

Report run(const StudySpec& spec, RunOptions options) {
  return run_streaming_study(shared_library(), spec, options);
}

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(PopulationStudy, RatingExportIsByteIdenticalAcrossJobCounts) {
  const StudySpec spec = small_spec(study::StudyKind::kRating, 1500);
  RunOptions one;
  one.jobs = 1;
  one.block_size = 128;
  RunOptions four;
  four.jobs = 4;
  four.block_size = 128;
  const auto a = run(spec, one);
  const auto b = run(spec, four);
  EXPECT_TRUE(a.complete());
  EXPECT_TRUE(b.complete());
  EXPECT_EQ(report_bytes(spec, a.accumulator), report_bytes(spec, b.accumulator));
}

TEST(PopulationStudy, AbExportIsByteIdenticalAcrossJobCounts) {
  const StudySpec spec = small_spec(study::StudyKind::kAb, 900);
  RunOptions one;
  one.jobs = 1;
  one.block_size = 64;
  RunOptions three;
  three.jobs = 3;
  three.block_size = 64;
  const auto a = run(spec, one);
  const auto b = run(spec, three);
  EXPECT_EQ(report_bytes(spec, a.accumulator), report_bytes(spec, b.accumulator));
}

// The tests above compare runs of one build with each other; this one pins
// the report bytes themselves, so a change to the vote stream (a reordered
// draw, a rewritten rater formula) fails even when it is job-independent.
// A deliberate change to the stimuli or the rater model re-pins both values.
TEST(PopulationStudy, ReportBytesArePinned) {
  RunOptions options;
  options.jobs = 2;
  for (const auto& [kind, expected] :
       {std::pair{study::StudyKind::kAb, std::uint64_t{0x213e7c1bc07abfc7}},
        std::pair{study::StudyKind::kRating, std::uint64_t{0x533e94eeaffda30a}}}) {
    const StudySpec spec = small_spec(kind, 20000);
    const std::uint64_t hash = fnv1a(report_bytes(spec, run(spec, options).accumulator));
    EXPECT_EQ(hash, expected) << kind_token(kind) << " report hash 0x" << std::hex << hash;
  }
}

TEST(PopulationStudy, ShardSplitsMergeToTheUnshardedBytesInAnyOrder) {
  const StudySpec spec = small_spec(study::StudyKind::kRating, 2000);
  RunOptions whole;
  whole.jobs = 2;
  whole.block_size = 128;
  const auto reference = run(spec, whole);
  const std::string expected = report_bytes(spec, reference.accumulator);

  // Three shards, each with a DIFFERENT block size than the reference run —
  // participant identity, not work partitioning, determines every draw.
  std::vector<Accumulator> shards;
  std::uint64_t owned_total = 0;
  for (unsigned i = 0; i < 3; ++i) {
    RunOptions options;
    options.jobs = 2;
    options.shard_index = i;
    options.shard_count = 3;
    options.block_size = 64;
    const auto report = run(spec, options);
    EXPECT_TRUE(report.complete());
    // The formula `study report` checks shard files against.
    EXPECT_EQ(report.owned_blocks, owned_blocks(spec.participants, 64, i, 3));
    owned_total += report.owned_blocks;
    shards.push_back(report.accumulator);
  }
  EXPECT_EQ(owned_total, 32U);  // ceil(2000 / 64): every block owned exactly once
  for (const auto& order : {std::vector<std::size_t>{0, 1, 2}, {2, 0, 1}, {1, 2, 0}}) {
    Accumulator merged = make_accumulator(spec.kind);
    for (const std::size_t i : order) merged.merge(shards[i]);
    EXPECT_EQ(report_bytes(spec, merged), expected);
  }
}

TEST(PopulationStudy, FunnelAndVoteTotalsAreConsistent) {
  const StudySpec spec = small_spec(study::StudyKind::kRating, 1200);
  RunOptions options;
  options.jobs = 2;
  options.block_size = 100;
  const auto report = run(spec, options);
  const Accumulator& acc = report.accumulator;
  EXPECT_EQ(acc.participants, spec.participants);
  std::uint64_t removed = 0;
  for (const std::uint64_t count : acc.removed_at) removed += count;
  EXPECT_EQ(acc.survivors + removed, acc.participants);
  // Every survivor rates the full 11+11+5 context blocks (pools are larger
  // than the per-context budget), with one seconds sample per vote.
  EXPECT_EQ(acc.votes, acc.survivors * (11 + 11 + 5));
  EXPECT_EQ(acc.seconds.count(), acc.votes);
  std::uint64_t cell_votes = 0;
  for (const auto& cell : acc.rating_cells) cell_votes += cell.votes.count();
  EXPECT_EQ(cell_votes, acc.votes);
  // Votes live on the paper's 10..70 scale.
  for (const auto& cell : acc.rating_cells) {
    if (cell.votes.count() == 0) continue;
    EXPECT_GE(cell.votes.mean(), 10.0);
    EXPECT_LE(cell.votes.mean(), 70.0);
  }
}

TEST(PopulationStudy, ResumedRunMatchesUninterruptedBytes) {
  const StudySpec spec = small_spec(study::StudyKind::kRating, 1600);
  const std::string checkpoint = temp_path("qperc_pop_resume.qps");
  std::remove(checkpoint.c_str());

  RunOptions uninterrupted;
  uninterrupted.jobs = 2;
  uninterrupted.block_size = 64;
  const auto reference = run(spec, uninterrupted);

  // First leg: stop deterministically after 10 of 25 blocks.
  RunOptions first;
  first.jobs = 2;
  first.block_size = 64;
  first.checkpoint_path = checkpoint;
  first.checkpoint_every_blocks = 4;
  first.max_blocks = 10;
  const auto partial = run(spec, first);
  EXPECT_FALSE(partial.complete());
  EXPECT_EQ(partial.blocks_done, 10u);

  // Second leg resumes from the durable file and finishes.
  RunOptions second;
  second.jobs = 3;  // a different job count must not matter
  second.block_size = 64;
  second.checkpoint_path = checkpoint;
  second.resume = true;
  const auto resumed = run(spec, second);
  EXPECT_TRUE(resumed.complete());
  EXPECT_EQ(resumed.resumed_blocks, 10u);
  EXPECT_EQ(report_bytes(spec, resumed.accumulator),
            report_bytes(spec, reference.accumulator));
  std::remove(checkpoint.c_str());
}

TEST(PopulationStudy, CheckpointRoundTripsAndRejectsCorruption) {
  const StudySpec spec = small_spec(study::StudyKind::kAb, 500);
  RunOptions options;
  options.jobs = 1;
  options.block_size = 50;
  const auto report = run(spec, options);

  const std::string path = temp_path("qperc_pop_store.qps");
  const StudyStore store(path, spec.fingerprint(), 0, 1, options.block_size);
  store.save(report.accumulator, report.blocks_done);

  Accumulator loaded = make_accumulator(spec.kind);
  std::uint64_t blocks_done = 0;
  ASSERT_TRUE(store.load(loaded, blocks_done));
  EXPECT_EQ(blocks_done, report.blocks_done);
  EXPECT_EQ(report_bytes(spec, loaded), report_bytes(spec, report.accumulator));

  // A different study identity refuses to resume this file.
  StudySpec other = spec;
  other.seed = kSeed + 1;
  const StudyStore mismatched(path, other.fingerprint(), 0, 1, options.block_size);
  Accumulator scratch = make_accumulator(spec.kind);
  EXPECT_FALSE(mismatched.load(scratch, blocks_done));
  // A different shard geometry refuses too.
  const StudyStore other_geometry(path, spec.fingerprint(), 0, 2, options.block_size);
  EXPECT_FALSE(other_geometry.load(scratch, blocks_done));

  std::string good;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    good = buffer.str();
  }
  // A rejected file leaves the caller's accumulator and block count alone.
  const auto expect_rejected = [&](const std::string& contents) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << contents;
    }
    Accumulator untouched = make_accumulator(spec.kind);
    std::uint64_t blocks = 3;
    EXPECT_FALSE(store.load(untouched, blocks));
    EXPECT_EQ(blocks, 3u);
    EXPECT_EQ(report_bytes(spec, untouched),
              report_bytes(spec, make_accumulator(spec.kind)));
    EXPECT_FALSE(read_shard(path, make_accumulator(spec.kind)).has_value());
  };

  // Flipping one payload digit breaks the checksum.
  std::string flipped = good;
  const auto digit = flipped.find_first_of("0123456789", flipped.find('\n'));
  ASSERT_NE(digit, std::string::npos);
  flipped[digit] = flipped[digit] == '9' ? '8' : '9';
  expect_rejected(flipped);

  // Rewriting only the header's blocks_done is caught too: the header is
  // inside the checksum, so a resume can never skip or replay blocks.
  std::string rewound = good;
  const auto header_end = rewound.find('\n');
  const auto blocks_field = rewound.rfind(' ', header_end) + 1;
  ASSERT_EQ(rewound.substr(blocks_field, header_end - blocks_field),
            std::to_string(report.blocks_done));
  rewound.replace(blocks_field, header_end - blocks_field,
                  std::to_string(report.blocks_done - 3));
  expect_rejected(rewound);

  // Files crafted through the durable-file writer carry a valid checksum,
  // so only read_shard's geometry check can refuse an impossible split.
  store.save(report.accumulator, report.blocks_done);
  const auto saved = read_durable(path, StudyStore::kMagic);
  ASSERT_TRUE(saved.has_value());
  const auto with_geometry = [&](const std::string& geometry) {
    write_durable(path,
                  std::string(StudyStore::kMagic) + ' ' + std::to_string(spec.fingerprint()) +
                      ' ' + geometry + ' ' + std::to_string(report.blocks_done),
                  saved->payload);
    return read_shard(path, make_accumulator(spec.kind)).has_value();
  };
  EXPECT_TRUE(with_geometry("1 2 50"));
  EXPECT_FALSE(with_geometry("9 2 50"));  // index beyond the split
  EXPECT_FALSE(with_geometry("2 2 50"));
  EXPECT_FALSE(with_geometry("0 0 50"));  // no shards
  EXPECT_FALSE(with_geometry("0 1 0"));   // empty blocks
  std::remove(path.c_str());
}

TEST(PopulationStudy, RefusesCheckpointsOfThePreviousParticipantStream) {
  // v2 files were drawn from another per-participant stream; resuming one
  // would mix two streams in one study, so the magic bump must refuse it.
  const StudySpec spec = small_spec(study::StudyKind::kRating, 300);
  RunOptions options;
  options.jobs = 1;
  options.block_size = 50;
  const auto report = run(spec, options);
  const std::string path = temp_path("qperc_pop_v2.qps");
  const StudyStore store(path, spec.fingerprint(), 0, 1, options.block_size);
  store.save(report.accumulator, report.blocks_done);
  const auto saved = read_durable(path, StudyStore::kMagic);
  ASSERT_TRUE(saved.has_value());
  write_durable(path,
                "qperc-popstudy-v2 " + std::to_string(spec.fingerprint()) + " 0 1 50 " +
                    std::to_string(report.blocks_done),
                saved->payload);

  Accumulator loaded = make_accumulator(spec.kind);
  std::uint64_t blocks_done = 0;
  EXPECT_FALSE(store.load(loaded, blocks_done));
  EXPECT_EQ(blocks_done, 0u);
  EXPECT_FALSE(read_shard(path, make_accumulator(spec.kind)).has_value());
  std::remove(path.c_str());
}

/// Folds kept votes into a fresh accumulator, taking the funnel (which has
/// no votes) from `run`.
Accumulator fold_votes(const StudySpec& spec, const Report& run) {
  Accumulator acc = make_accumulator(spec.kind);
  acc.participants = run.accumulator.participants;
  acc.survivors = run.accumulator.survivors;
  acc.removed_at = run.accumulator.removed_at;
  for (const VoteRecord& vote : run.votes) {
    ++acc.votes;
    acc.seconds.push(vote.seconds);
    for (RatingCell& cell : acc.rating_cells) {
      if (cell.protocol == vote.video->protocol && cell.network == vote.video->network &&
          cell.context == vote.context) {
        cell.votes.push(vote.rating);
      }
    }
    for (AbCell& cell : acc.ab_cells) {
      if (cell.pair_index != vote.pair_index || cell.network != vote.video->network) continue;
      if (vote.choice == study::AbChoice::kFirst) {
        ++cell.prefer_first;
      } else if (vote.choice == study::AbChoice::kSecond) {
        ++cell.prefer_second;
      } else {
        ++cell.no_difference;
      }
      cell.replays += vote.replays;
      cell.confidence_q += std::llround(vote.confidence * stats::ExactMoments::kScale);
    }
  }
  return acc;
}

TEST(PopulationStudy, KeptVotesAreJobIndependentAndFoldToTheCells) {
  for (const auto kind : {study::StudyKind::kRating, study::StudyKind::kAb}) {
    const StudySpec spec = small_spec(kind, 700);
    RunOptions one;
    one.jobs = 1;
    one.block_size = 64;
    one.keep_votes = true;
    RunOptions four = one;
    four.jobs = 4;
    four.block_size = 100;
    const auto a = run(spec, one);
    const auto b = run(spec, four);
    ASSERT_EQ(a.votes.size(), a.accumulator.votes);
    EXPECT_TRUE(a.votes == b.votes);
    // The records carry every vote the cells hold, bit for bit.
    EXPECT_EQ(report_bytes(spec, fold_votes(spec, a)), report_bytes(spec, a.accumulator));
    // Keeping votes does not change the accumulated numbers.
    RunOptions plain = one;
    plain.keep_votes = false;
    const auto dropped = run(spec, plain);
    EXPECT_TRUE(dropped.votes.empty());
    EXPECT_EQ(report_bytes(spec, dropped.accumulator), report_bytes(spec, a.accumulator));
  }
}

TEST(PopulationStudy, MemoryIsConstantInTheParticipantCount) {
  // Warm everything once (library cache, static pools, allocator pools).
  RunOptions warmup;
  warmup.jobs = 1;
  run(small_spec(study::StudyKind::kRating, 256), warmup);

  const auto measure = [&](std::uint64_t participants) {
    RunOptions options;
    options.jobs = 1;  // inline: no per-round thread stacks in the measurement
    options.block_size = 256;
    const std::uint64_t bytes_before = heap_bytes_allocated();
    const std::uint64_t allocs_before = heap_allocations();
    const auto report = run(small_spec(study::StudyKind::kRating, participants), options);
    EXPECT_TRUE(report.complete());
    return std::pair{heap_bytes_allocated() - bytes_before,
                     heap_allocations() - allocs_before};
  };

  const auto [small_bytes, small_allocs] = measure(1024);
  const auto [large_bytes, large_allocs] = measure(4096);

  // 4x the participants must not cost 4x the memory: the per-participant
  // marginal allocation stays under a few bytes (scratch buffers and
  // accumulators are reused; only per-round bookkeeping remains).
  const double marginal_bytes =
      large_bytes > small_bytes
          ? static_cast<double>(large_bytes - small_bytes) / (4096.0 - 1024.0)
          : 0.0;
  EXPECT_LT(marginal_bytes, 64.0)
      << "small run: " << small_bytes << " B, large run: " << large_bytes << " B";
  const double marginal_allocs =
      large_allocs > small_allocs
          ? static_cast<double>(large_allocs - small_allocs) / (4096.0 - 1024.0)
          : 0.0;
  EXPECT_LT(marginal_allocs, 1.0)
      << "small run: " << small_allocs << " allocs, large run: " << large_allocs;
}

TEST(PopulationStudy, SpecAndOptionsValidateInput) {
  StudySpec spec = small_spec(study::StudyKind::kRating, 0);
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.participants = 10;
  spec.videos_work = spec.videos_free_time = spec.videos_plane = 0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  RunOptions options;
  options.shard_index = 2;
  options.shard_count = 2;
  EXPECT_THROW(options.validate(), std::invalid_argument);
  options.shard_index = 0;
  options.block_size = 0;
  EXPECT_THROW(options.validate(), std::invalid_argument);
  options.block_size = 64;
  options.keep_votes = true;
  options.resume = true;  // kept votes are not checkpointed
  EXPECT_THROW(options.validate(), std::invalid_argument);
}

TEST(PopulationStudy, FingerprintSeparatesSpecs) {
  const StudySpec a = small_spec(study::StudyKind::kRating, 1000);
  StudySpec b = a;
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  b.participants = 1001;
  EXPECT_NE(a.fingerprint(), b.fingerprint());
  StudySpec c = a;
  c.kind = study::StudyKind::kAb;
  EXPECT_NE(a.fingerprint(), c.fingerprint());
  StudySpec d = a;
  d.group = study::Group::kInternet;
  EXPECT_NE(a.fingerprint(), d.fingerprint());
}

}  // namespace
}  // namespace qperc::population
