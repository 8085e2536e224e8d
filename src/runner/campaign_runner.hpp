// Runs a CampaignSpec into a ResultStore through the one grid loop
// (run_grid, runner/grid.hpp): resume, sharding, progress and failure
// capture are the grid's; a campaign task is one core::produce_video.
//
// Campaign trials run untraced; progress snapshots and the report carry
// the campaign-wide sum of every trial's net::TransportStats ledger.
#pragma once

#include <cstddef>

#include "runner/campaign.hpp"
#include "runner/grid.hpp"
#include "runner/result_store.hpp"

namespace qperc::core {
class VideoLibrary;
}

namespace qperc::runner {

using CampaignOptions = GridOptions;

/// Runs (the spec's shard of) the grid, skipping conditions already in the
/// store, and checkpoints the store incrementally plus once at the end.
/// Every cell's profile carries the spec's link-condition overlay. Throws
/// std::invalid_argument when the store's (seed, runs, conditions) does
/// not match the spec. Task failures do not throw — they are captured in
/// the report while the remaining tasks complete.
GridReport<CampaignTask> run_campaign(const CampaignSpec& spec, ResultStore& store,
                                      const GridOptions& options = {});

/// Copies every stored result into the library's in-memory cache (existing
/// entries win). Returns the number of newly adopted conditions. Throws
/// std::invalid_argument when store and library disagree on (seed, runs,
/// link conditions).
std::size_t adopt_results(const ResultStore& store, core::VideoLibrary& library);

}  // namespace qperc::runner
