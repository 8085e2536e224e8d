// CampaignSpec: the paper's experiment grid (§3's sites × protocols ×
// networks × ≥31 runs) on the shared grid axes (runner/grid.hpp).
//
// Determinism contract: the grid enumeration order is fixed (site-major,
// then protocol, then network) and every task carries a base seed derived
// from the task's identity alone (core::condition_base_seed — the same
// derivation VideoLibrary::get uses), never from thread or shard identity.
// Two campaigns over the same spec therefore produce bit-identical results
// for every task, regardless of --jobs, --shard, interruption, or resume.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/video.hpp"
#include "net/profile.hpp"
#include "runner/grid.hpp"

namespace qperc::runner {

/// One cell of the grid: a (site, protocol, network) condition to be
/// simulated `runs` times from `base_seed`.
struct CampaignTask {
  /// Position in the full (unsharded) grid; stable across shards.
  std::size_t grid_index = 0;
  std::string site;
  std::string protocol;
  net::NetworkKind network = net::NetworkKind::kDsl;
  /// Derived from (seed, site, protocol, network) only.
  std::uint64_t base_seed = 0;

  /// The store key of the task's result.
  [[nodiscard]] core::VideoKey key() const { return {site, protocol, network}; }
};

struct CampaignSpec : GridAxes {
  using Task = CampaignTask;

  /// Cells in the full grid across all shards.
  [[nodiscard]] std::size_t grid_size() const { return condition_count(); }

  /// Enumerates this shard's tasks in deterministic grid order.
  [[nodiscard]] std::vector<CampaignTask> tasks() const;
};

/// The stimulus grid of the paper's studies: the first `sites` catalog sites
/// (every site when the catalog is shorter) x the paper's protocols x every
/// network, `runs` trials per condition, under the link-condition overlay.
[[nodiscard]] CampaignSpec stimulus_spec(std::uint64_t seed, std::uint32_t runs,
                                         std::size_t sites,
                                         const net::LinkConditions& conditions = {});

}  // namespace qperc::runner
