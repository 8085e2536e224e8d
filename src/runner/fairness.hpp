// The fairness grid: contention experiments (flow count x mix x stagger, on
// top of the shared site x protocol x network axes) run by the one grid
// loop, run_grid, into a GridStore (runner/grid.hpp); a fairness task is
// one run_cell.
//
// Determinism contract (same as campaign.hpp): enumeration order is fixed,
// every cell's base seed derives from the cell's identity alone, and the
// store writes key-sorted records — so exports are byte-identical across
// --jobs, shard splits merged in any order, and kill/resume cycles.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "net/contention.hpp"
#include "net/profile.hpp"
#include "runner/grid.hpp"
#include "util/time.hpp"

namespace qperc::runner {

/// One cell of the fairness grid: a (site, protocol, network, flows, mix,
/// stagger) condition to be simulated `runs` times from `base_seed`.
struct FairnessTask {
  /// Position in the full (unsharded) grid; stable across shards.
  std::size_t grid_index = 0;
  std::string site;
  std::string protocol;
  net::NetworkKind network = net::NetworkKind::kDsl;
  std::uint32_t flows = 0;
  net::CrossMix mix = net::CrossMix::kCubic;
  SimDuration stagger{0};
  /// Derived from (seed, site, protocol, network, flows, mix, stagger) only.
  std::uint64_t base_seed = 0;

  /// The store key of the task's cell.
  [[nodiscard]] std::size_t key() const { return grid_index; }
};

struct FairnessSpec : GridAxes {
  using Task = FairnessTask;

  /// Contention axes. 0 in flow_counts is legal and means "no cross
  /// traffic" — the single-flow baseline cell for side-by-side tables.
  std::vector<std::uint32_t> flow_counts;
  std::vector<net::CrossMix> mixes;
  std::vector<SimDuration> staggers;
  /// On-off pattern shared by every cell (not axes; see ContentionConfig).
  std::uint64_t burst_bytes = 0;
  SimDuration off_time{0};

  /// Cells in the full grid across all shards.
  [[nodiscard]] std::size_t grid_size() const {
    return condition_count() * flow_counts.size() * mixes.size() * staggers.size();
  }

  /// GridAxes::validate, plus an empty or repeating contention axis or an
  /// invalid contention pattern (std::invalid_argument).
  void validate() const;

  /// Enumerates this shard's cells in deterministic grid order (site-major,
  /// then protocol, network, flows, mix, stagger).
  [[nodiscard]] std::vector<FairnessTask> tasks() const;

  /// Hash of every result-affecting field except the master seed (which the
  /// store header carries separately); a store only loads records written
  /// under the same fingerprint, so changing an axis can never alias a
  /// stale cell by grid index.
  [[nodiscard]] std::uint64_t fingerprint() const;
};

/// Identity-derived per-cell seed (the condition_base_seed trick extended
/// with the contention axes).
[[nodiscard]] std::uint64_t fairness_cell_seed(std::uint64_t seed, std::string_view site,
                                               std::string_view protocol,
                                               net::NetworkKind network,
                                               std::uint32_t flows, net::CrossMix mix,
                                               SimDuration stagger);

/// Aggregated result of one cell: means over `runs` trials of the page's QoE
/// metrics plus the cross-traffic side (per-flow goodputs, Jain's index,
/// bottleneck queue occupancy).
struct FairnessCell {
  std::size_t grid_index = 0;
  std::string site;
  std::string protocol;
  net::NetworkKind network = net::NetworkKind::kDsl;
  std::uint32_t flows = 0;
  net::CrossMix mix = net::CrossMix::kCubic;
  SimDuration stagger{0};

  std::uint32_t runs = 0;
  std::uint32_t pages_finished = 0;
  double mean_fvc_ms = 0.0;
  double mean_lvc_ms = 0.0;
  double mean_plt_ms = 0.0;
  double mean_vc85_ms = 0.0;
  double mean_si_ms = 0.0;
  double mean_page_retransmissions = 0.0;
  /// Mean over runs of the per-run Jain index across cross-flow goodputs;
  /// 1.0 for flows == 0 cells (nothing to share).
  double jain_index = 1.0;
  /// Peak bottleneck-downlink queue occupancy as a fraction of capacity.
  double mean_queue_peak_frac = 0.0;
  double mean_queue_drops = 0.0;
  /// Per cross-flow goodput in bits/second, mean over runs; size == flows.
  std::vector<double> flow_goodput_bps;
};

/// The fairness store's record codec: one text line per cell (fixed field
/// order, max_digits10 doubles), keyed by grid index. read() rejects a
/// malformed line.
struct FairnessCodec {
  using Key = std::size_t;
  using Record = FairnessCell;
  [[nodiscard]] static Key key(const FairnessCell& cell) { return cell.grid_index; }
  static void write(std::ostream& os, const FairnessCell& cell);
  [[nodiscard]] static bool read(std::istream& is, FairnessCell& cell);
};

/// The fairness grid's durable store: cells in grid-index order under a
/// header that carries the spec's fingerprint (ARCHITECTURE.md, "Durable
/// files").
class FairnessStore : public GridStore<FairnessCodec> {
 public:
  static constexpr const char* kMagic = "qperc-fairness-v2";

  /// The header identity of a fairness grid over (seed, runs, fingerprint).
  [[nodiscard]] static std::string identity_for(std::uint64_t seed, std::uint32_t runs,
                                                std::uint64_t fingerprint) {
    return std::string(kMagic) + ' ' + std::to_string(seed) + ' ' + std::to_string(runs) +
           ' ' + std::to_string(fingerprint);
  }

  FairnessStore(std::string path, std::uint64_t seed, std::uint32_t runs,
                std::uint64_t fingerprint, std::size_t checkpoint_every = 8)
      : GridStore(std::move(path), identity_for(seed, runs, fingerprint), checkpoint_every) {}
};

/// Runs one cell: `runs` contended trials, aggregated. Exposed for tests;
/// the result depends only on (task, runs, burst pattern, seed catalog).
[[nodiscard]] FairnessCell run_fairness_cell(const FairnessTask& task,
                                             const FairnessSpec& spec);

/// Runs (the spec's shard of) the fairness grid, skipping cells already in
/// the store, checkpointing incrementally plus once at the end. Throws
/// std::invalid_argument when the store's (seed, runs, fingerprint) does
/// not match the spec. Cell failures are captured in the report.
GridReport<FairnessTask> run_fairness(const FairnessSpec& spec, FairnessStore& store,
                                      const GridOptions& options = {});

}  // namespace qperc::runner
