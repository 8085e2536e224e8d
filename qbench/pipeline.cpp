#include "pipeline.hpp"

#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>

#include "core/protocol.hpp"
#include "core/video.hpp"
#include "population/population_study.hpp"
#include "runner/campaign_runner.hpp"
#include "runner/result_store.hpp"
#include "web/website.hpp"

namespace qperc::bench {

namespace {

double elapsed_s(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

}  // namespace

Pipeline::Pipeline(PipelineConfig config) : config_(std::move(config)) {
  for (const auto& site : web::study_site_specs()) spec_.sites.push_back(site.name);
  for (const auto& protocol : core::paper_protocols()) spec_.protocols.push_back(protocol.name);
  for (const auto& profile : net::all_profiles()) spec_.networks.push_back(profile.kind);
  spec_.runs = config_.runs;
  spec_.seed = config_.seed;
  spec_.validate();
}

PipelineRun Pipeline::run(Report& report) const {
  PipelineRun out;
  std::filesystem::remove(config_.store_path);
  const std::int64_t start = now_ns();

  // Stage 1: the campaign.
  {
    runner::ResultStore store(config_.store_path, spec_.seed, spec_.runs);
    runner::CampaignOptions options;
    options.jobs = config_.jobs;
    const double cpu = process_cpu_s();
    const std::uint64_t allocations = heap_allocations_so_far();
    const std::int64_t t = now_ns();
    const auto campaign = runner::run_campaign(spec_, store, options);
    out.campaign_s = elapsed_s(t);
    out.campaign_cpu_s = process_cpu_s() - cpu;
    out.campaign_allocations = heap_allocations_so_far() - allocations;
    out.trials = campaign.executed * spec_.runs;
    report.check(campaign.failures.empty(),
                 std::to_string(campaign.failures.size()) + " campaign cells failed");
    report.check(campaign.executed == spec_.grid_size(), "campaign executed the whole grid");

    const std::int64_t save = now_ns();
    store.checkpoint();
    out.store_save_ms = elapsed_s(save) * 1e3;
    report.check(store.size() == spec_.grid_size(), "store holds the whole grid");
  }

  // Stage 2: reload the store, adopt it as stimuli, run both studies.
  runner::ResultStore loaded(config_.store_path, spec_.seed, spec_.runs);
  const std::int64_t load = now_ns();
  report.check(loaded.load(), "store reloads from disk");
  out.store_load_ms = elapsed_s(load) * 1e3;

  core::VideoLibrary library(spec_.seed, spec_.runs);
  const std::int64_t adopt = now_ns();
  const std::size_t adopted = runner::adopt_results(loaded, library);
  out.adopt_ms = elapsed_s(adopt) * 1e3;
  report.check(adopted == spec_.grid_size(), "every stored condition adopted");

  Digest digest;
  digest.add(file_bytes(config_.store_path));
  std::ostringstream reports;
  for (const auto kind : {study::StudyKind::kAb, study::StudyKind::kRating}) {
    population::StudySpec study_spec;
    study_spec.kind = kind;
    study_spec.participants = config_.participants;
    study_spec.seed = spec_.seed;
    study_spec.video_runs = spec_.runs;
    population::RunOptions options;
    options.jobs = config_.jobs;

    const std::size_t cached = library.cached_conditions();
    const double cpu = process_cpu_s();
    const std::int64_t t = now_ns();
    const auto result = population::run_streaming_study(library, study_spec, options);
    (kind == study::StudyKind::kAb ? out.ab_s : out.rating_s) = elapsed_s(t);
    out.study_cpu_s += process_cpu_s() - cpu;
    out.trials_simulated += (library.cached_conditions() - cached) * spec_.runs;
    report.check(result.complete(), std::string(population::kind_token(kind)) +
                                        " study report complete");

    const std::int64_t write = now_ns();
    population::write_report(reports, study_spec, result.accumulator);
    out.report_ms += elapsed_s(write) * 1e3;
  }
  report.check(out.trials_simulated == 0, "study stage reused the campaign's stimuli");
  out.wall_s = elapsed_s(start);

  digest.add(reports.str());
  out.digest = digest.value();
  return out;
}

}  // namespace qperc::bench
