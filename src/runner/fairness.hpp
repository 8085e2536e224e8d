// The fairness grid: contention experiments (flow count x mix x stagger, on
// top of the campaign's site x protocol x network axes) run over the same
// executor / durable-store / sharding machinery as every other grid.
//
// Determinism contract (same as campaign.hpp): enumeration order is fixed,
// every cell's base seed derives from the cell's identity alone, and the
// store writes key-sorted records — so exports are byte-identical across
// --jobs, shard splits merged in any order, and kill/resume cycles.
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "net/contention.hpp"
#include "net/profile.hpp"
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
};

struct FairnessSpec {
  std::vector<std::string> sites;
  std::vector<std::string> protocols;
  std::vector<net::NetworkKind> networks;
  /// Contention axes. 0 in flow_counts is legal and means "no cross
  /// traffic" — the single-flow baseline cell for side-by-side tables.
  std::vector<std::uint32_t> flow_counts;
  std::vector<net::CrossMix> mixes;
  std::vector<SimDuration> staggers;
  /// Trials per cell.
  std::uint32_t runs = 5;
  /// Master seed: keys the site catalog and every cell's base seed.
  std::uint64_t seed = 7;
  /// On-off pattern shared by every cell (not axes; see ContentionConfig).
  std::uint64_t burst_bytes = 0;
  SimDuration off_time{0};
  /// Variable-rate trace and policer overlay shared by every cell (not an
  /// axis); the default leaves every profile untouched.
  net::LinkConditions conditions{};
  /// `--shard i/n`: this process executes cells with
  /// grid_index % shard_count == shard_index.
  unsigned shard_index = 0;
  unsigned shard_count = 1;

  /// Cells in the full grid across all shards.
  [[nodiscard]] std::size_t grid_size() const {
    return sites.size() * protocols.size() * networks.size() * flow_counts.size() *
           mixes.size() * staggers.size();
  }

  /// Throws std::invalid_argument on an empty grid dimension, runs == 0,
  /// an out-of-range shard, or an invalid contention pattern.
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

/// Serializes one cell as a single text line (deterministic: fixed field
/// order, max_digits10 doubles). The reader rejects malformed lines.
void write_fairness_record(std::ostream& os, const FairnessCell& cell);
[[nodiscard]] bool read_fairness_record(std::istream& is, FairnessCell& cell);

/// Durable, resumable store for fairness cells: a durable file of records
/// in grid-index order (format and guarantees: ARCHITECTURE.md, "Durable
/// files"), fingerprinted against the spec's axes.
class FairnessStore {
 public:
  static constexpr const char* kMagic = "qperc-fairness-v2";

  FairnessStore(std::string path, std::uint64_t seed, std::uint32_t runs,
                std::uint64_t fingerprint, std::size_t checkpoint_every = 8);

  /// Loads this store's own checkpoint file. Returns false (leaving the
  /// store empty) when the file fails the durable-file checks, has a
  /// different seed/runs/fingerprint, or holds a malformed or duplicate
  /// record.
  [[nodiscard]] bool load();
  /// Merges a compatible shard file into memory (existing cells win; no
  /// checkpoint). Returns false and absorbs nothing on any mismatch.
  [[nodiscard]] bool absorb(const std::string& path);

  void put(FairnessCell cell);
  /// Atomically persists the current contents. Throws std::runtime_error
  /// when the file cannot be written.
  void checkpoint();

  [[nodiscard]] bool contains(std::size_t grid_index) const;
  [[nodiscard]] std::size_t size() const;
  void for_each(const std::function<void(const FairnessCell&)>& fn) const;

  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] std::uint64_t seed() const { return seed_; }
  [[nodiscard]] std::uint32_t runs() const { return runs_; }
  [[nodiscard]] std::uint64_t fingerprint() const { return fingerprint_; }

 private:
  void checkpoint_locked();
  /// The header up to its record count.
  [[nodiscard]] std::string identity() const;
  [[nodiscard]] bool read_file(const std::string& path,
                               std::map<std::size_t, FairnessCell>& out) const;

  std::string path_;
  std::uint64_t seed_;
  std::uint32_t runs_;
  std::uint64_t fingerprint_;
  std::size_t checkpoint_every_;
  std::size_t puts_since_checkpoint_ = 0;
  std::map<std::size_t, FairnessCell> cells_;
  mutable std::mutex mutex_;
};

struct FairnessProgress {
  std::size_t total = 0;
  std::size_t skipped = 0;
  std::size_t pending = 0;
  std::size_t completed = 0;
  double elapsed_seconds = 0.0;
  double eta_seconds = 0.0;
};

struct FairnessFailure {
  FairnessTask task;
  unsigned attempts = 0;
  std::string message;
  std::exception_ptr error;
};

struct FairnessOptions {
  /// Worker threads; 0 = one per hardware thread.
  unsigned jobs = 0;
  unsigned max_attempts = 2;
  /// Stop after executing this many pending cells (0 = unlimited); the e2e
  /// harness uses this to emulate a deterministic interruption.
  std::size_t max_tasks = 0;
  std::function<void(const FairnessProgress&)> on_progress;
  std::chrono::milliseconds progress_interval{500};
};

struct FairnessReport {
  std::size_t total = 0;
  std::size_t skipped = 0;
  std::size_t executed = 0;
  std::vector<FairnessFailure> failures;
  double elapsed_seconds = 0.0;
};

/// Runs one cell: `runs` contended trials, aggregated. Exposed for tests;
/// the result depends only on (task, runs, burst pattern, seed catalog).
[[nodiscard]] FairnessCell run_fairness_cell(const FairnessTask& task,
                                             const FairnessSpec& spec);

/// Runs (the spec's shard of) the fairness grid, skipping cells already in
/// the store, checkpointing incrementally plus once at the end. Throws
/// std::invalid_argument when the store's (seed, runs, fingerprint) does
/// not match the spec. Cell failures are captured in the report.
FairnessReport run_fairness(const FairnessSpec& spec, FairnessStore& store,
                            const FairnessOptions& options = {});

}  // namespace qperc::runner
