#include "population/checkpoint.hpp"

#include <sstream>
#include <utility>

#include "util/durable_file.hpp"

namespace qperc::population {
namespace {

/// Serialises the integer accumulator state (the durable file's payload).
/// Deterministic bytes: fixed field order, integers only.
std::string payload_for(const Accumulator& acc) {
  std::ostringstream os;
  os << "counts " << acc.participants << ' ' << acc.survivors << ' ' << acc.votes << '\n';
  os << "removed";
  for (const std::uint64_t count : acc.removed_at) os << ' ' << count;
  os << '\n';
  os << "seconds " << acc.seconds.count() << ' ' << acc.seconds.sum_q() << ' '
     << acc.seconds.sumsq_hi() << ' ' << acc.seconds.sumsq_lo() << '\n';
  os << "cells " << acc.rating_cells.size() << ' ' << acc.ab_cells.size() << '\n';
  for (std::size_t i = 0; i < acc.rating_cells.size(); ++i) {
    const stats::ExactMoments& votes = acc.rating_cells[i].votes;
    os << "rcell " << i << ' ' << votes.count() << ' ' << votes.sum_q() << ' '
       << votes.sumsq_hi() << ' ' << votes.sumsq_lo() << '\n';
  }
  for (std::size_t i = 0; i < acc.ab_cells.size(); ++i) {
    const AbCell& cell = acc.ab_cells[i];
    os << "acell " << i << ' ' << cell.prefer_first << ' ' << cell.no_difference << ' '
       << cell.prefer_second << ' ' << cell.replays << ' ' << cell.confidence_q << '\n';
  }
  return os.str();
}

/// Reads the next payload line into `fields` and consumes its expected tag.
bool expect_tag(std::istream& in, std::string_view tag, std::istringstream& fields) {
  std::string line;
  if (!std::getline(in, line)) return false;
  fields.clear();
  fields.str(line);
  std::string parsed;
  fields >> parsed;
  return static_cast<bool>(fields) && parsed == tag;
}

}  // namespace

std::optional<ShardState> read_shard(const std::string& path, const Accumulator& layout) {
  const auto file = read_durable(path, StudyStore::kMagic);
  if (!file) return std::nullopt;
  std::istringstream header(file->header);
  std::string magic;
  ShardState state;
  header >> magic >> state.fingerprint >> state.shard_index >> state.shard_count >>
      state.block_size >> state.blocks_done;
  if (!header || state.shard_count == 0 || state.shard_index >= state.shard_count ||
      state.block_size == 0) {
    return std::nullopt;
  }

  std::istringstream in(file->payload);
  std::istringstream fields;
  state.accumulator = layout;
  state.accumulator.reset_counts();
  Accumulator& acc = state.accumulator;

  if (!expect_tag(in, "counts", fields)) return std::nullopt;
  fields >> acc.participants >> acc.survivors >> acc.votes;
  if (!fields) return std::nullopt;

  if (!expect_tag(in, "removed", fields)) return std::nullopt;
  for (std::uint64_t& count : acc.removed_at) fields >> count;
  if (!fields) return std::nullopt;

  if (!expect_tag(in, "seconds", fields)) return std::nullopt;
  {
    std::uint64_t n = 0;
    std::int64_t sum_q = 0;
    std::uint64_t hi = 0;
    std::uint64_t lo = 0;
    fields >> n >> sum_q >> hi >> lo;
    if (!fields) return std::nullopt;
    acc.seconds = stats::ExactMoments::restore(n, sum_q, hi, lo);
  }

  if (!expect_tag(in, "cells", fields)) return std::nullopt;
  std::size_t rating_count = 0;
  std::size_t ab_count = 0;
  fields >> rating_count >> ab_count;
  if (!fields || rating_count != layout.rating_cells.size() ||
      ab_count != layout.ab_cells.size()) {
    return std::nullopt;
  }

  for (std::size_t i = 0; i < rating_count; ++i) {
    if (!expect_tag(in, "rcell", fields)) return std::nullopt;
    std::size_t index = 0;
    std::uint64_t n = 0;
    std::int64_t sum_q = 0;
    std::uint64_t hi = 0;
    std::uint64_t lo = 0;
    fields >> index >> n >> sum_q >> hi >> lo;
    if (!fields || index != i) return std::nullopt;
    acc.rating_cells[i].votes = stats::ExactMoments::restore(n, sum_q, hi, lo);
  }
  for (std::size_t i = 0; i < ab_count; ++i) {
    if (!expect_tag(in, "acell", fields)) return std::nullopt;
    std::size_t index = 0;
    AbCell& cell = acc.ab_cells[i];
    fields >> index >> cell.prefer_first >> cell.no_difference >> cell.prefer_second >>
        cell.replays >> cell.confidence_q;
    if (!fields || index != i) return std::nullopt;
  }
  if (in.peek() != EOF) return std::nullopt;
  return state;
}

StudyStore::StudyStore(std::string path, std::uint64_t fingerprint, unsigned shard_index,
                       unsigned shard_count, std::uint64_t block_size)
    : path_(std::move(path)),
      fingerprint_(fingerprint),
      shard_index_(shard_index),
      shard_count_(shard_count),
      block_size_(block_size) {}

bool StudyStore::load(Accumulator& acc, std::uint64_t& blocks_done) const {
  const auto loaded = read_shard(path_, acc);
  if (!loaded || loaded->fingerprint != fingerprint_ ||
      loaded->shard_index != shard_index_ || loaded->shard_count != shard_count_ ||
      loaded->block_size != block_size_) {
    return false;
  }
  acc = loaded->accumulator;
  blocks_done = loaded->blocks_done;
  return true;
}

void StudyStore::save(const Accumulator& acc, std::uint64_t blocks_done) const {
  std::ostringstream header;
  header << kMagic << ' ' << fingerprint_ << ' ' << shard_index_ << ' ' << shard_count_ << ' '
         << block_size_ << ' ' << blocks_done;
  write_durable(path_, header.str(), payload_for(acc));
}

}  // namespace qperc::population
