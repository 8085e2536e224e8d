#include "runner/campaign_runner.hpp"

// qperc-lint: allow-file(wall-clock) operator-facing progress/ETA display only; wall time never reaches trial results or the event schedule
#include <mutex>
#include <stdexcept>
#include <utility>

#include "core/protocol.hpp"
#include "core/video.hpp"
#include "net/profile.hpp"
#include "runner/executor.hpp"
#include "web/website.hpp"

namespace qperc::runner {

CampaignReport run_campaign(const CampaignSpec& spec, ResultStore& store,
                            const CampaignOptions& options) {
  spec.validate();
  if (store.seed() != spec.seed || store.runs() != spec.runs) {
    throw std::invalid_argument("result store (seed, runs) does not match the campaign");
  }

  const auto shard_tasks = spec.tasks();
  std::vector<CampaignTask> pending;
  pending.reserve(shard_tasks.size());
  for (const auto& task : shard_tasks) {
    if (!store.contains(task.site, task.protocol, task.network)) pending.push_back(task);
  }
  CampaignReport report;
  report.total = shard_tasks.size();
  report.skipped = report.total - pending.size();
  if (options.max_tasks != 0 && pending.size() > options.max_tasks) {
    pending.resize(options.max_tasks);
  }

  // One catalog for the whole campaign; lookups are read-only and safe to
  // share across workers.
  const auto catalog = web::study_catalog(spec.seed);
  const auto site_by_name = [&catalog](const std::string& name) -> const web::Website& {
    for (const auto& site : catalog) {
      if (site.name == name) return site;
    }
    throw std::invalid_argument("unknown site: " + name);
  };

  const auto start = std::chrono::steady_clock::now();
  std::mutex progress_mutex;
  std::size_t completed = 0;
  net::TransportStats totals;
  auto last_emit = start;

  const auto snapshot = [&]() {  // callers hold progress_mutex
    CampaignProgress progress;
    progress.total = report.total;
    progress.skipped = report.skipped;
    progress.pending = pending.size();
    progress.completed = completed;
    progress.transport = totals;
    progress.elapsed_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    if (progress.elapsed_seconds > 0.0 && completed > 0) {
      progress.tasks_per_second =
          static_cast<double>(completed) / progress.elapsed_seconds;
      progress.eta_seconds =
          static_cast<double>(pending.size() - completed) / progress.tasks_per_second;
    }
    return progress;
  };

  Executor executor({.jobs = options.jobs, .max_attempts = options.max_attempts});
  auto failures = executor.run(pending.size(), [&](std::size_t index) {
    const CampaignTask& task = pending[index];
    const web::Website& site = site_by_name(task.site);
    const core::ProtocolConfig& protocol = core::protocol_by_name(task.protocol);
    const net::NetworkProfile& profile = net::profile_for(task.network);

    net::TransportStats transport;
    core::Video video =
        core::produce_video(site, protocol, profile, spec.runs, task.base_seed, &transport);
    store.put(std::move(video));

    std::function<void(const CampaignProgress&)> emit;
    CampaignProgress progress;
    {
      const std::lock_guard<std::mutex> lock(progress_mutex);
      ++completed;
      totals += transport;
      const auto now = std::chrono::steady_clock::now();
      if (options.on_progress && now - last_emit >= options.progress_interval) {
        last_emit = now;
        progress = snapshot();
        emit = options.on_progress;
      }
    }
    if (emit) emit(progress);
  });
  store.checkpoint();

  report.executed = pending.size();
  report.failures.reserve(failures.size());
  for (auto& failure : failures) {
    CampaignFailure entry;
    entry.task = pending[failure.index];
    entry.attempts = failure.attempts;
    entry.message = std::move(failure.message);
    entry.error = failure.error;
    report.failures.push_back(std::move(entry));
  }
  report.elapsed_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  {
    const std::lock_guard<std::mutex> lock(progress_mutex);
    report.transport = totals;
    if (options.on_progress) options.on_progress(snapshot());
  }
  return report;
}

std::size_t adopt_results(const ResultStore& store, core::VideoLibrary& library) {
  if (store.seed() != library.catalog_seed() || store.runs() != library.runs()) {
    throw std::invalid_argument("result store (seed, runs) does not match the library");
  }
  std::size_t adopted = 0;
  store.for_each([&](const core::Video& video) {
    if (library.insert(video)) ++adopted;
  });
  return adopted;
}

}  // namespace qperc::runner
