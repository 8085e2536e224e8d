// The campaign's durable, resumable store: a GridStore (runner/grid.hpp) of
// key-sorted video records (core::VideoCodec; ARCHITECTURE.md, "Durable
// files"). It is the one file every stimulus lives in: `campaign run`
// writes it, and studies and benches adopt it into a core::VideoLibrary.
// Records are written in key order, so the bytes depend only on the set of
// results, not on job count or completion order.
#pragma once

#include <cstdint>
#include <string>

#include "core/video.hpp"
#include "net/profile.hpp"
#include "runner/grid.hpp"

namespace qperc::runner {

class ResultStore : public GridStore<core::VideoCodec> {
 public:
  static constexpr const char* kMagic = "qperc-campaign-v4";

  /// The header identity of a campaign over (seed, runs), followed by the
  /// link-condition token only when an overlay is set, so an unconditioned
  /// campaign's header carries no overlay field.
  [[nodiscard]] static std::string identity_for(std::uint64_t seed, std::uint32_t runs,
                                                const net::LinkConditions& conditions = {}) {
    std::string identity =
        std::string(kMagic) + ' ' + std::to_string(seed) + ' ' + std::to_string(runs);
    if (conditions.any()) identity += ' ' + conditions.token();
    return identity;
  }

  ResultStore(std::string path, std::uint64_t seed, std::uint32_t runs,
              std::size_t checkpoint_every = 25, const net::LinkConditions& conditions = {})
      : GridStore(std::move(path), identity_for(seed, runs, conditions), checkpoint_every) {}
};

}  // namespace qperc::runner
