// The paper-pipeline workload's two stages, driven only through qperc's
// public calls:
//   1. runner::run_campaign over the full grid (36 sites x 5 protocols x
//      4 networks) into a fresh ResultStore, with default options (campaign
//      counters on, as `qperc campaign run` runs it);
//   2. ResultStore save and reload, runner::adopt_results into a fresh
//      VideoLibrary, then the A/B and rating studies through
//      population::run_streaming_study and population::write_report.
#pragma once

#include <cstdint>
#include <string>

#include "measure.hpp"
#include "runner/campaign.hpp"

namespace qperc::bench {

struct PipelineConfig {
  std::uint64_t seed = 7;
  unsigned jobs = 1;
  std::uint32_t runs = 1;
  std::uint64_t participants = 1;  // per study
  std::string store_path;
};

/// What one pass through both stages measured.
struct PipelineRun {
  double wall_s = 0.0;  // stage 1 + stage 2
  double campaign_s = 0.0;
  double campaign_cpu_s = 0.0;
  std::uint64_t trials = 0;
  std::uint64_t campaign_allocations = 0;
  double store_save_ms = 0.0;
  double store_load_ms = 0.0;
  double adopt_ms = 0.0;
  double ab_s = 0.0;
  double rating_s = 0.0;
  double study_cpu_s = 0.0;
  double report_ms = 0.0;
  std::uint64_t trials_simulated = 0;  // by the study stage; must be 0
  /// FNV-1a over the store file bytes and both study reports.
  std::uint64_t digest = 0;
};

class Pipeline {
 public:
  explicit Pipeline(PipelineConfig config);

  [[nodiscard]] const PipelineConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::uint64_t grid_size() const { return spec_.grid_size(); }

  /// Runs both stages once from an empty store; failed checks go to `report`.
  [[nodiscard]] PipelineRun run(Report& report) const;

 private:
  PipelineConfig config_;
  runner::CampaignSpec spec_;
};

}  // namespace qperc::bench
