#include "runner/result_store.hpp"

#include <utility>

namespace qperc::runner {

namespace {

std::string identity(std::uint64_t seed, std::uint32_t runs) {
  return std::string(ResultStore::kMagic) + ' ' + std::to_string(seed) + ' ' +
         std::to_string(runs);
}

}  // namespace

ResultStore::ResultStore(std::string path, std::uint64_t seed, std::uint32_t runs,
                         std::size_t checkpoint_every)
    : path_(std::move(path)),
      seed_(seed),
      runs_(runs),
      checkpoint_every_(checkpoint_every == 0 ? 1 : checkpoint_every) {}

bool ResultStore::load() {
  const std::lock_guard<std::mutex> lock(mutex_);
  results_.clear();
  puts_since_checkpoint_ = 0;

  auto loaded = core::read_video_file(path_, identity(seed_, runs_));
  if (!loaded) return false;
  results_ = std::move(*loaded);
  return true;
}

void ResultStore::put(core::Video video) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const Key key{video.site, video.protocol, static_cast<int>(video.network)};
  results_.insert_or_assign(key, std::move(video));
  if (++puts_since_checkpoint_ >= checkpoint_every_) checkpoint_locked();
}

void ResultStore::checkpoint() {
  const std::lock_guard<std::mutex> lock(mutex_);
  checkpoint_locked();
}

void ResultStore::checkpoint_locked() {
  core::write_video_file(path_, identity(seed_, runs_), results_);
  puts_since_checkpoint_ = 0;
}

bool ResultStore::contains(const std::string& site, const std::string& protocol,
                           net::NetworkKind network) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return results_.contains(Key{site, protocol, static_cast<int>(network)});
}

std::size_t ResultStore::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return results_.size();
}

void ResultStore::for_each(const std::function<void(const core::Video&)>& fn) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [key, video] : results_) fn(video);
}

}  // namespace qperc::runner
