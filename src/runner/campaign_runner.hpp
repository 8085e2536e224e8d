// Executes a CampaignSpec against a durable ResultStore.
//
// Resume semantics: tasks whose condition is already in the store are
// skipped (never recomputed), so re-running after an interruption
// continues from the last checkpoint. Because every task's seed derives
// from its identity (see campaign.hpp) and the store writes key-sorted
// records, the final store bytes are identical whether the campaign ran in
// one shot or across any number of interruptions, shards, or job counts.
//
// Progress: an optional callback receives throttled snapshots (at most one
// per progress_interval, plus a final one) carrying completion counts,
// rate, ETA, and the campaign-wide sum of every trial's net::TransportStats
// ledger. Campaign trials run untraced.
#pragma once

#include <chrono>
#include <cstddef>
#include <exception>
#include <functional>
#include <string>
#include <vector>

#include "net/transport_stats.hpp"
#include "runner/campaign.hpp"
#include "runner/result_store.hpp"

namespace qperc::core {
class VideoLibrary;
}

namespace qperc::runner {

struct CampaignProgress {
  std::size_t total = 0;     // tasks in this shard's grid slice
  std::size_t skipped = 0;   // already in the store (resume)
  std::size_t pending = 0;   // scheduled for execution this run
  std::size_t completed = 0; // finished successfully this run
  double elapsed_seconds = 0.0;
  double tasks_per_second = 0.0;
  /// Estimated seconds until the pending tasks finish (0 when unknown).
  double eta_seconds = 0.0;
  /// Sum of every completed trial's transport ledger; integer sums, so the
  /// total does not depend on task completion order.
  net::TransportStats transport;
};

/// One grid cell whose every attempt threw; the campaign completed the
/// rest and recorded this.
struct CampaignFailure {
  CampaignTask task;
  unsigned attempts = 0;
  std::string message;
  std::exception_ptr error;
};

struct CampaignOptions {
  /// Worker threads; 0 = one per hardware thread.
  unsigned jobs = 0;
  /// Attempts per task before recording a failure.
  unsigned max_attempts = 2;
  /// Stop after executing this many pending tasks (0 = unlimited). Used by
  /// tests and the e2e harness to emulate an interrupted campaign at a
  /// deterministic point; the next --resume run picks up the rest.
  std::size_t max_tasks = 0;
  /// Throttled progress callback (invoked from worker threads, serialized).
  std::function<void(const CampaignProgress&)> on_progress;
  std::chrono::milliseconds progress_interval{500};
};

struct CampaignReport {
  std::size_t total = 0;
  std::size_t skipped = 0;
  std::size_t executed = 0;  // attempted this run = completed + failures
  std::vector<CampaignFailure> failures;
  net::TransportStats transport;
  double elapsed_seconds = 0.0;
};

/// Runs (the spec's shard of) the grid, skipping conditions already in the
/// store, and checkpoints the store incrementally plus once at the end.
/// Throws std::invalid_argument when the store's (seed, runs) pair does
/// not match the spec. Task failures do not throw — they are captured in
/// the report while the remaining tasks complete.
CampaignReport run_campaign(const CampaignSpec& spec, ResultStore& store,
                            const CampaignOptions& options = {});

/// Copies every stored result into the library's in-memory cache (existing
/// entries win). Returns the number of newly adopted conditions. Throws
/// std::invalid_argument when store and library disagree on (seed, runs).
std::size_t adopt_results(const ResultStore& store, core::VideoLibrary& library);

}  // namespace qperc::runner
