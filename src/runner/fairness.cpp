#include "runner/fairness.hpp"

// qperc-lint: allow-file(wall-clock) operator-facing progress/ETA display only; wall time never reaches trial results or the event schedule
#include <chrono>
#include <iomanip>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/protocol.hpp"
#include "core/trial.hpp"
#include "core/trial_context.hpp"
#include "runner/executor.hpp"
#include "stats/stats.hpp"
#include "util/durable_file.hpp"
#include "util/rng.hpp"
#include "web/website.hpp"

namespace qperc::runner {

namespace {

void set_record_precision(std::ostream& os) {
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
}

}  // namespace

void FairnessSpec::validate() const {
  if (sites.empty()) throw std::invalid_argument("FairnessSpec: no sites");
  if (protocols.empty()) throw std::invalid_argument("FairnessSpec: no protocols");
  if (networks.empty()) throw std::invalid_argument("FairnessSpec: no networks");
  if (flow_counts.empty()) throw std::invalid_argument("FairnessSpec: no flow counts");
  if (mixes.empty()) throw std::invalid_argument("FairnessSpec: no mixes");
  if (staggers.empty()) throw std::invalid_argument("FairnessSpec: no staggers");
  if (runs == 0) throw std::invalid_argument("FairnessSpec: runs must be >= 1");
  if (shard_count == 0 || shard_index >= shard_count) {
    throw std::invalid_argument("FairnessSpec: shard index out of range");
  }
  // Every cell's contention config must be constructible: validate the
  // largest flow count with the shared pattern once, up front.
  net::ContentionConfig probe;
  probe.burst_bytes = burst_bytes;
  probe.off_time = off_time;
  for (const std::uint32_t flows : flow_counts) {
    probe.flows = flows;
    probe.validate();
  }
}

std::uint64_t fairness_cell_seed(std::uint64_t seed, std::string_view site,
                                 std::string_view protocol, net::NetworkKind network,
                                 std::uint32_t flows, net::CrossMix mix,
                                 SimDuration stagger) {
  const Rng seeder(seed);
  return seeder.fork(site)
      .fork(protocol)
      .fork(static_cast<std::uint64_t>(network))
      .fork("fairness")
      .fork(flows)
      .fork(static_cast<std::uint64_t>(mix))
      .fork(static_cast<std::uint64_t>(stagger.count()))
      .next_u64();
}

std::vector<FairnessTask> FairnessSpec::tasks() const {
  validate();
  std::vector<FairnessTask> shard_tasks;
  std::size_t grid_index = 0;
  for (const auto& site : sites) {
    for (const auto& protocol : protocols) {
      for (const auto network : networks) {
        for (const auto flows : flow_counts) {
          for (const auto mix : mixes) {
            for (const auto stagger : staggers) {
              if (grid_index % shard_count == shard_index) {
                FairnessTask task;
                task.grid_index = grid_index;
                task.site = site;
                task.protocol = protocol;
                task.network = network;
                task.flows = flows;
                task.mix = mix;
                task.stagger = stagger;
                task.base_seed =
                    fairness_cell_seed(seed, site, protocol, network, flows, mix, stagger);
                shard_tasks.push_back(std::move(task));
              }
              ++grid_index;
            }
          }
        }
      }
    }
  }
  return shard_tasks;
}

std::uint64_t FairnessSpec::fingerprint() const {
  // Serialize every result-affecting axis (the master seed and runs live in
  // the store header) and hash; '\n' separators keep fields unambiguous.
  std::ostringstream os;
  os << "sites";
  for (const auto& site : sites) os << '\n' << site;
  os << "\nprotocols";
  for (const auto& protocol : protocols) os << '\n' << protocol;
  os << "\nnetworks";
  for (const auto network : networks) os << '\n' << static_cast<int>(network);
  os << "\nflows";
  for (const auto flows : flow_counts) os << '\n' << flows;
  os << "\nmixes";
  for (const auto mix : mixes) os << '\n' << net::to_string(mix);
  os << "\nstaggers";
  for (const auto stagger : staggers) os << '\n' << stagger.count();
  os << "\npattern\n" << burst_bytes << '\n' << off_time.count();
  os << "\nschedule\n" << net::to_string(conditions.link_trace) << '\n'
     << conditions.link_trace_seed << '\n' << conditions.policer_rate.bps() << '\n'
     << conditions.policer_burst_bytes;
  return fnv1a(os.str());
}

void write_fairness_record(std::ostream& os, const FairnessCell& cell) {
  set_record_precision(os);
  os << "cell " << cell.grid_index << ' ' << cell.site << ' ' << cell.protocol << ' '
     << static_cast<int>(cell.network) << ' ' << cell.flows << ' '
     << net::to_string(cell.mix) << ' ' << cell.stagger.count() << ' ' << cell.runs << ' '
     << cell.pages_finished << ' ' << cell.mean_fvc_ms << ' ' << cell.mean_lvc_ms << ' '
     << cell.mean_plt_ms << ' ' << cell.mean_vc85_ms << ' ' << cell.mean_si_ms << ' '
     << cell.mean_page_retransmissions << ' ' << cell.jain_index << ' '
     << cell.mean_queue_peak_frac << ' ' << cell.mean_queue_drops << ' '
     << cell.flow_goodput_bps.size();
  for (const double goodput : cell.flow_goodput_bps) os << ' ' << goodput;
  os << '\n';
}

bool read_fairness_record(std::istream& is, FairnessCell& cell) {
  std::string tag;
  std::string mix;
  int network = 0;
  std::int64_t stagger_ns = 0;
  std::size_t goodputs = 0;
  is >> tag >> cell.grid_index >> cell.site >> cell.protocol >> network >> cell.flows >>
      mix >> stagger_ns >> cell.runs >> cell.pages_finished >> cell.mean_fvc_ms >>
      cell.mean_lvc_ms >> cell.mean_plt_ms >> cell.mean_vc85_ms >> cell.mean_si_ms >>
      cell.mean_page_retransmissions >> cell.jain_index >> cell.mean_queue_peak_frac >>
      cell.mean_queue_drops >> goodputs;
  if (!is || tag != "cell" || network < 0 || network > 3 || goodputs > 4096) return false;
  cell.network = static_cast<net::NetworkKind>(network);
  cell.stagger = SimDuration{stagger_ns};
  try {
    cell.mix = net::parse_cross_mix(mix);
  } catch (const std::invalid_argument&) {
    return false;
  }
  cell.flow_goodput_bps.resize(goodputs);
  for (std::size_t i = 0; i < goodputs; ++i) is >> cell.flow_goodput_bps[i];
  return static_cast<bool>(is);
}

FairnessStore::FairnessStore(std::string path, std::uint64_t seed, std::uint32_t runs,
                             std::uint64_t fingerprint, std::size_t checkpoint_every)
    : path_(std::move(path)),
      seed_(seed),
      runs_(runs),
      fingerprint_(fingerprint),
      checkpoint_every_(checkpoint_every == 0 ? 1 : checkpoint_every) {}

std::string FairnessStore::identity() const {
  return std::string(kMagic) + ' ' + std::to_string(seed_) + ' ' + std::to_string(runs_) +
         ' ' + std::to_string(fingerprint_) + ' ';
}

bool FairnessStore::read_file(const std::string& path,
                              std::map<std::size_t, FairnessCell>& out) const {
  const auto file = read_durable(path, kMagic);
  const std::string expected = identity();
  std::size_t count = 0;
  if (!file || !file->header.starts_with(expected) ||
      !(std::istringstream(file->header.substr(expected.size())) >> count)) {
    return false;
  }
  std::istringstream in(file->payload);
  std::map<std::size_t, FairnessCell> loaded;
  std::string line;
  for (std::size_t i = 0; i < count && std::getline(in, line); ++i) {
    std::istringstream record(line);
    FairnessCell cell;
    if (!read_fairness_record(record, cell)) return false;
    loaded[cell.grid_index] = std::move(cell);
  }
  if (loaded.size() != count || in.peek() != EOF) return false;
  out = std::move(loaded);
  return true;
}

bool FairnessStore::load() {
  const std::lock_guard<std::mutex> lock(mutex_);
  puts_since_checkpoint_ = 0;
  cells_.clear();
  std::map<std::size_t, FairnessCell> loaded;
  if (!read_file(path_, loaded)) return false;
  cells_ = std::move(loaded);
  return true;
}

bool FairnessStore::absorb(const std::string& path) {
  std::map<std::size_t, FairnessCell> loaded;
  if (!read_file(path, loaded)) return false;
  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [index, cell] : loaded) cells_.emplace(index, std::move(cell));
  return true;
}

void FairnessStore::put(FairnessCell cell) {
  const std::lock_guard<std::mutex> lock(mutex_);
  cells_[cell.grid_index] = std::move(cell);
  if (++puts_since_checkpoint_ >= checkpoint_every_) checkpoint_locked();
}

void FairnessStore::checkpoint() {
  const std::lock_guard<std::mutex> lock(mutex_);
  checkpoint_locked();
}

void FairnessStore::checkpoint_locked() {
  std::ostringstream payload;
  for (const auto& [index, cell] : cells_) write_fairness_record(payload, cell);
  write_durable(path_, identity() + std::to_string(cells_.size()), payload.str());
  puts_since_checkpoint_ = 0;
}

bool FairnessStore::contains(std::size_t grid_index) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return cells_.count(grid_index) != 0;
}

std::size_t FairnessStore::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return cells_.size();
}

void FairnessStore::for_each(const std::function<void(const FairnessCell&)>& fn) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [index, cell] : cells_) fn(cell);
}

namespace {

FairnessCell run_cell(const FairnessTask& task, const FairnessSpec& spec,
                      const web::Website& site, core::TrialContext& context) {
  const core::ProtocolConfig& protocol = core::protocol_by_name(task.protocol);
  net::NetworkProfile profile = net::profile_for(task.network);
  // Spec-level variable-rate/policing knobs (shared by every cell, hashed
  // into the fingerprint so stores never alias across configurations).
  spec.conditions.apply(profile);

  net::ContentionConfig config;
  config.flows = task.flows;
  config.mix = task.mix;
  config.start_stagger = task.stagger;
  config.burst_bytes = spec.burst_bytes;
  config.off_time = spec.off_time;

  FairnessCell cell;
  cell.grid_index = task.grid_index;
  cell.site = task.site;
  cell.protocol = task.protocol;
  cell.network = task.network;
  cell.flows = task.flows;
  cell.mix = task.mix;
  cell.stagger = task.stagger;
  cell.runs = spec.runs;
  cell.flow_goodput_bps.assign(task.flows, 0.0);

  std::vector<double> goodputs(task.flows, 0.0);
  double jain_sum = 0.0;
  Rng run_rng(task.base_seed);
  for (std::uint32_t r = 0; r < spec.runs; ++r) {
    const std::uint64_t trial_seed = run_rng.next_u64();
    core::ContentionOutcome outcome;
    const auto result = context.run(
        core::TrialSpec(site, protocol, profile, trial_seed).with_contention(config),
        &outcome);
    if (result.metrics.finished) ++cell.pages_finished;
    cell.mean_fvc_ms += result.metrics.fvc_ms();
    cell.mean_lvc_ms += result.metrics.lvc_ms();
    cell.mean_plt_ms += result.metrics.plt_ms();
    cell.mean_vc85_ms += result.metrics.vc85_ms();
    cell.mean_si_ms += result.metrics.si_ms();
    cell.mean_page_retransmissions +=
        static_cast<double>(result.transport.retransmissions);
    if (config.enabled()) {
      for (std::uint32_t i = 0; i < task.flows; ++i) {
        goodputs[i] = outcome.flows[i].goodput_bps;
        cell.flow_goodput_bps[i] += outcome.flows[i].goodput_bps;
      }
      jain_sum += stats::jain_fairness_index(goodputs);
      if (outcome.queue_capacity_bytes != 0) {
        cell.mean_queue_peak_frac += static_cast<double>(outcome.peak_queue_bytes) /
                                     static_cast<double>(outcome.queue_capacity_bytes);
      }
      cell.mean_queue_drops += static_cast<double>(outcome.queue_drops);
    }
  }
  const double n = static_cast<double>(spec.runs);
  cell.mean_fvc_ms /= n;
  cell.mean_lvc_ms /= n;
  cell.mean_plt_ms /= n;
  cell.mean_vc85_ms /= n;
  cell.mean_si_ms /= n;
  cell.mean_page_retransmissions /= n;
  cell.jain_index = config.enabled() ? jain_sum / n : 1.0;
  cell.mean_queue_peak_frac /= n;
  cell.mean_queue_drops /= n;
  for (double& goodput : cell.flow_goodput_bps) goodput /= n;
  return cell;
}

}  // namespace

FairnessCell run_fairness_cell(const FairnessTask& task, const FairnessSpec& spec) {
  const auto catalog = web::study_catalog(spec.seed);
  for (const auto& site : catalog) {
    if (site.name == task.site) {
      core::TrialContext context;
      return run_cell(task, spec, site, context);
    }
  }
  throw std::invalid_argument("unknown site: " + task.site);
}

FairnessReport run_fairness(const FairnessSpec& spec, FairnessStore& store,
                            const FairnessOptions& options) {
  spec.validate();
  if (store.seed() != spec.seed || store.runs() != spec.runs ||
      store.fingerprint() != spec.fingerprint()) {
    throw std::invalid_argument("fairness store does not match the spec");
  }

  const auto shard_tasks = spec.tasks();
  std::vector<FairnessTask> pending;
  pending.reserve(shard_tasks.size());
  for (const auto& task : shard_tasks) {
    if (!store.contains(task.grid_index)) pending.push_back(task);
  }
  FairnessReport report;
  report.total = shard_tasks.size();
  report.skipped = report.total - pending.size();
  if (options.max_tasks != 0 && pending.size() > options.max_tasks) {
    pending.resize(options.max_tasks);
  }

  // One catalog for the whole grid; lookups are read-only across workers.
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
  auto last_emit = start;

  const auto snapshot = [&]() {  // callers hold progress_mutex
    FairnessProgress progress;
    progress.total = report.total;
    progress.skipped = report.skipped;
    progress.pending = pending.size();
    progress.completed = completed;
    progress.elapsed_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    if (progress.elapsed_seconds > 0.0 && completed > 0) {
      const double rate = static_cast<double>(completed) / progress.elapsed_seconds;
      progress.eta_seconds = static_cast<double>(pending.size() - completed) / rate;
    }
    return progress;
  };

  Executor executor({.jobs = options.jobs, .max_attempts = options.max_attempts});
  auto failures = executor.run(pending.size(), [&](std::size_t index) {
    const FairnessTask& task = pending[index];
    const web::Website& site = site_by_name(task.site);
    core::TrialContext context;
    store.put(run_cell(task, spec, site, context));

    std::function<void(const FairnessProgress&)> emit;
    FairnessProgress progress;
    {
      const std::lock_guard<std::mutex> lock(progress_mutex);
      ++completed;
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
    FairnessFailure entry;
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
    if (options.on_progress) options.on_progress(snapshot());
  }
  return report;
}

}  // namespace qperc::runner
