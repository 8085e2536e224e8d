// The campaign's durable, resumable store: a GridStore (runner/grid.hpp) of
// key-sorted video records, in the file format the VideoLibrary cache also
// uses (core::VideoCodec; ARCHITECTURE.md, "Durable files"). Records are
// written in key order, so the bytes depend only on the set of results,
// not on job count or completion order.
#pragma once

#include <cstdint>
#include <string>

#include "core/video.hpp"
#include "runner/grid.hpp"

namespace qperc::runner {

class ResultStore : public GridStore<core::VideoCodec> {
 public:
  static constexpr const char* kMagic = "qperc-campaign-v4";

  /// The header identity of a campaign over (seed, runs).
  [[nodiscard]] static std::string identity_for(std::uint64_t seed, std::uint32_t runs) {
    return std::string(kMagic) + ' ' + std::to_string(seed) + ' ' + std::to_string(runs);
  }

  ResultStore(std::string path, std::uint64_t seed, std::uint32_t runs,
              std::size_t checkpoint_every = 25)
      : GridStore(std::move(path), identity_for(seed, runs), checkpoint_every) {}
};

}  // namespace qperc::runner
