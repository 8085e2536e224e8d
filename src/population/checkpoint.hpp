// Durable, resumable checkpoint for one population-study shard: a durable
// file (header and guarantees: ARCHITECTURE.md, "Durable files") whose
// payload is the accumulator's integer state:
//
//   counts <participants> <survivors> <votes>
//   removed <r1> ... <r7>
//   seconds <n> <sum_q> <sumsq_hi> <sumsq_lo>
//   cells <rating_count> <ab_count>
//   rcell <i> <n> <sum_q> <sumsq_hi> <sumsq_lo>                 x rating_count
//   acell <i> <first> <nodiff> <second> <replays> <confidence_q> x ab_count
//
// Only integer accumulator state is stored — never derived doubles — so a
// resumed run is bit-identical to an uninterrupted one.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "population/population_study.hpp"

namespace qperc::population {

/// One shard's checkpoint as read back from disk (see read_shard).
struct ShardState {
  Accumulator accumulator;
  std::uint64_t fingerprint = 0;
  unsigned shard_index = 0;
  unsigned shard_count = 1;
  std::uint64_t block_size = 0;
  std::uint64_t blocks_done = 0;
};

/// Reads any shard checkpoint whose cell layout matches `layout`
/// (make_accumulator of the expected kind). Returns nullopt when the file
/// fails the durable-file checks, is malformed, or has an impossible shard
/// geometry (zero shards or block size, index not below the shard count).
/// Used by `study report` to merge shard files without knowing their
/// geometry up front.
[[nodiscard]] std::optional<ShardState> read_shard(const std::string& path,
                                                   const Accumulator& layout);

/// Writer/loader bound to one run's identity. load() additionally verifies
/// fingerprint and shard geometry against this run's, so a checkpoint from
/// a different study or a different shard split can never be resumed
/// silently.
class StudyStore {
 public:
  static constexpr const char* kMagic = "qperc-popstudy-v3";

  StudyStore(std::string path, std::uint64_t fingerprint, unsigned shard_index,
             unsigned shard_count, std::uint64_t block_size);

  /// Loads into `acc` (must carry the expected layout) and `blocks_done`.
  /// Returns false — leaving both untouched — when the file is missing or
  /// does not match this run's identity.
  [[nodiscard]] bool load(Accumulator& acc, std::uint64_t& blocks_done) const;

  /// Atomically persists the accumulator. Throws std::runtime_error when
  /// the file cannot be written.
  void save(const Accumulator& acc, std::uint64_t blocks_done) const;

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::uint64_t fingerprint_ = 0;
  unsigned shard_index_ = 0;
  unsigned shard_count_ = 0;
  std::uint64_t block_size_ = 0;
};

}  // namespace qperc::population
