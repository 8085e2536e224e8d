// Shared plumbing for the reproduction benches.
//
// Every bench honours three environment variables so the full-fidelity
// reproduction (31 runs, 36 sites, paper cohort sizes) can be dialed down
// for quick checks:
//   QPERC_RUNS    trials per condition      (default 31, the paper's floor)
//   QPERC_SITES   websites used             (default 36, all)
//   QPERC_SEED    master seed               (default 7)
//   QPERC_JOBS    campaign worker threads   (default 0 = all hardware threads)
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "core/video.hpp"
#include "net/profile.hpp"
#include "population/population_study.hpp"
#include "runner/campaign.hpp"
#include "runner/campaign_runner.hpp"
#include "runner/result_store.hpp"
#include "study/participant.hpp"
#include "util/table.hpp"

namespace qperc::bench {

inline std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return std::strtoull(value, nullptr, 10);
}

inline std::uint64_t master_seed() { return env_u64("QPERC_SEED", 7); }
inline std::uint32_t runs_per_condition() {
  return static_cast<std::uint32_t>(env_u64("QPERC_RUNS", 31));
}
inline std::size_t site_budget() {
  return static_cast<std::size_t>(env_u64("QPERC_SITES", 36));
}
inline unsigned campaign_jobs() {
  return static_cast<unsigned>(env_u64("QPERC_JOBS", 0));  // 0 = all hardware threads
}

/// The site names used by a bench, truncated to the QPERC_SITES budget
/// (paper-named sites come first in the catalog and are kept).
inline std::vector<std::string> bench_sites(const core::VideoLibrary& library) {
  std::vector<std::string> names;
  for (const auto& site : library.catalog()) {
    if (names.size() >= site_budget()) break;
    names.push_back(site.name);
  }
  return names;
}

inline std::vector<std::string> all_protocol_names() {
  std::vector<std::string> names;
  for (const auto& protocol : core::paper_protocols()) names.push_back(protocol.name);
  return names;
}

inline std::vector<net::NetworkKind> all_network_kinds() {
  std::vector<net::NetworkKind> kinds;
  for (const auto& profile : net::all_profiles()) kinds.push_back(profile.kind);
  return kinds;
}

inline void banner(const std::string& title, const std::string& paper_reference) {
  std::cout << "============================================================\n"
            << title << "\n"
            << paper_reference << "\n"
            << "seed=" << master_seed() << " runs/condition=" << runs_per_condition()
            << " sites=" << site_budget() << "\n"
            << "============================================================\n\n";
}

inline std::string context_label(study::Context context) {
  return std::string(study::to_string(context));
}

inline std::string cache_path() {
  const char* override_path = std::getenv("QPERC_CACHE");
  if (override_path != nullptr && *override_path != '\0') return override_path;
  return ".qperc_videos_seed" + std::to_string(master_seed()) + "_runs" +
         std::to_string(runs_per_condition()) + ".cache";
}

/// A video library backed by the campaign runner's durable ResultStore;
/// `produce_all` runs everything the study benches need as a resumable
/// campaign, so the grid is simulated at most once per (seed, runs) pair
/// across the whole bench suite — and an interrupted bench resumes from the
/// store's last checkpoint instead of restarting.
class CachedLibrary {
 public:
  CachedLibrary()
      : library_(master_seed(), runs_per_condition()),
        store_(cache_path(), master_seed(), runs_per_condition()) {
    loaded_ = store_.load();
    runner::adopt_results(store_, library_);
  }

  core::VideoLibrary& get() { return library_; }

  /// Produces the stimulus grid (runner::stimulus_spec) of the first `sites`
  /// catalog sites into the store and adopts it.
  void produce(std::size_t sites) {
    runner::CampaignOptions options;
    options.jobs = campaign_jobs();
    const auto report = runner::run_campaign(
        runner::stimulus_spec(master_seed(), runs_per_condition(), sites), store_, options);
    for (const auto& failure : report.failures) {
      std::cerr << "stimulus production failed: " << failure.task.site << "/"
                << failure.task.protocol << ": " << failure.message << "\n";
    }
    runner::adopt_results(store_, library_);
  }

  void produce_all() { produce(site_budget()); }

  [[nodiscard]] bool loaded_from_disk() const { return loaded_; }

 private:
  core::VideoLibrary library_;
  runner::ResultStore store_;
  bool loaded_ = false;
};

/// One of the paper's studies at its Table-3 cohort size over the bench's
/// sites (the first QPERC_SITES catalog entries, as `bench_sites` takes
/// them). Callers set the video counts their cohort was shown.
inline population::StudySpec paper_study(study::StudyKind kind, study::Group group) {
  population::StudySpec spec;
  spec.kind = kind;
  spec.group = group;
  spec.participants = study::paper_initial_cohort(group, kind);
  spec.seed = master_seed();
  spec.sites = site_budget();
  spec.video_runs = runs_per_condition();
  return spec;
}

/// Runs a study on the population engine, keeping every vote.
inline population::Report run_study(core::VideoLibrary& library,
                                    const population::StudySpec& spec) {
  population::RunOptions options;
  options.jobs = campaign_jobs();
  options.keep_votes = true;
  return population::run_streaming_study(library, spec, options);
}

inline double avg_seconds_per_video(const std::vector<population::VoteRecord>& votes) {
  double sum = 0.0;
  for (const auto& vote : votes) sum += vote.seconds;
  return votes.empty() ? 0.0 : sum / static_cast<double>(votes.size());
}

inline void fold_vote(std::vector<double>& ratings, const population::VoteRecord& vote) {
  ratings.push_back(vote.rating);
}
inline void fold_vote(study::AbAggregate& cell, const population::VoteRecord& vote) {
  cell.add(vote.choice, vote.replays, vote.confidence);
}

/// A study's votes grouped by `key(vote)`, each group folded in
/// participant-id order: rating votes into a std::vector<double>, A/B votes
/// into a study::AbAggregate.
template <typename Value, typename KeyFn>
auto group_votes(const std::vector<population::VoteRecord>& votes, const KeyFn& key) {
  std::map<std::invoke_result_t<const KeyFn&, const population::VoteRecord&>, Value> groups;
  for (const auto& vote : votes) fold_vote(groups[key(vote)], vote);
  return groups;
}

/// (site, protocol, network, context): the per-site granularity of §4.4.
using RatingSiteKey = std::tuple<std::string, std::string, net::NetworkKind, study::Context>;
inline RatingSiteKey rating_site_key(const population::VoteRecord& vote) {
  return {vote.video->site, vote.video->protocol, vote.video->network, vote.context};
}

}  // namespace qperc::bench
