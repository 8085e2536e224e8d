// Durable, resumable store for campaign results: a durable file of
// key-sorted video records (format and guarantees: ARCHITECTURE.md,
// "Durable files"). put() checkpoints automatically every
// `checkpoint_every` insertions; run boundaries call checkpoint() for the
// final flush. Records are written in key order from a std::map, so the
// bytes depend only on the set of results, not on job count or completion
// order.
//
// Thread-safe: all public methods lock an internal mutex, so executor
// workers can put() concurrently.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>

#include "core/video.hpp"
#include "net/profile.hpp"

namespace qperc::runner {

class ResultStore {
 public:
  using Key = core::VideoKey;

  static constexpr const char* kMagic = "qperc-campaign-v4";

  ResultStore(std::string path, std::uint64_t seed, std::uint32_t runs,
              std::size_t checkpoint_every = 25);

  /// Loads an existing checkpoint file. Returns false (leaving the store
  /// empty) when the file fails the durable-file checks, has a different
  /// (seed, runs) pair, or holds a malformed or duplicate record.
  [[nodiscard]] bool load();

  /// Inserts (or replaces) one result and checkpoints automatically every
  /// `checkpoint_every` insertions.
  void put(core::Video video);

  /// Atomically persists the current contents. Throws std::runtime_error
  /// when the file cannot be written.
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
