// Durable, resumable store for campaign results.
//
// On-disk format (version 3, plain text, one record per line):
//
//   qperc-campaign-v3 <seed> <runs> <count>
//   <video record>                                  x count, key-sorted
//   checksum <16-digit hex FNV-1a over the record block>
//
// Guarantees:
//   * Atomic checkpoints — every write goes to "<path>.tmp" and is renamed
//     over <path>, so a reader (or a resumed campaign) only ever sees a
//     complete, self-consistent file; a kill mid-write loses at most the
//     results since the previous checkpoint, never the file.
//   * Incremental checkpointing — put() persists automatically every
//     `checkpoint_every` insertions; run boundaries call checkpoint()
//     explicitly for the final flush.
//   * Tamper/truncation detection — load() verifies the version, the
//     (seed, runs) pair, the record count, and the whole-block checksum;
//     any mismatch discards the file and leaves the store empty, so a
//     corrupt checkpoint can never poison later runs with partial data.
//   * Deterministic bytes — records are written in key order from a
//     std::map, so the file contents depend only on the set of results,
//     not on job count or completion order (asserted by tests).
//
// Thread-safe: all public methods lock an internal mutex, so executor
// workers can put() concurrently.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <tuple>

#include "core/video.hpp"
#include "net/profile.hpp"

namespace qperc::runner {

class ResultStore {
 public:
  using Key = std::tuple<std::string, std::string, int>;

  static constexpr const char* kMagic = "qperc-campaign-v3";

  ResultStore(std::string path, std::uint64_t seed, std::uint32_t runs,
              std::size_t checkpoint_every = 25);

  /// Loads an existing checkpoint file. Returns false (leaving the store
  /// empty) when the file is missing, has a different version or
  /// (seed, runs) pair, is truncated, or fails the checksum.
  [[nodiscard]] bool load();

  /// Inserts (or replaces) one result and checkpoints automatically every
  /// `checkpoint_every` insertions.
  void put(core::Video video);

  /// Atomically persists the current contents (temp file + rename).
  /// Throws std::runtime_error when the file cannot be written.
  void checkpoint();

  [[nodiscard]] bool contains(const std::string& site, const std::string& protocol,
                              net::NetworkKind network) const;
  [[nodiscard]] std::size_t size() const;

  /// Visits every result in key-sorted order.
  void for_each(const std::function<void(const core::Video&)>& fn) const;

  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] std::uint64_t seed() const { return seed_; }
  [[nodiscard]] std::uint32_t runs() const { return runs_; }

 private:
  void checkpoint_locked();

  std::string path_;
  std::uint64_t seed_;
  std::uint32_t runs_;
  std::size_t checkpoint_every_;
  std::size_t puts_since_checkpoint_ = 0;
  std::map<Key, core::Video> results_;
  mutable std::mutex mutex_;
};

}  // namespace qperc::runner
