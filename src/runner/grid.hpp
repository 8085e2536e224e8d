// The one grid runner under every resumable experiment grid (the paper's
// campaign and the fairness grid): the axes every grid shares, the keyed
// durable store each grid checkpoints into, and run_grid, the one loop that
// executes a grid's shard through the Executor.
//
// Determinism contract: a grid enumerates its cells in a fixed order, every
// cell's seed derives from the cell's identity alone, a shard owns the
// cells with grid_index % shard_count == shard_index, and a store writes
// key-sorted records. The store bytes therefore depend only on the set of
// finished cells, not on --jobs, shard split, interruption or resume.
//
// qperc-lint: allow-file(wall-clock) operator-facing progress/ETA display only; wall time never reaches trial results or the event schedule
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "net/profile.hpp"
#include "net/transport_stats.hpp"
#include "runner/executor.hpp"
#include "util/durable_file.hpp"
#include "web/website.hpp"

namespace qperc::runner {

/// The axes and knobs every grid shares: the (site, protocol, network)
/// conditions, trials per cell, the master seed, the link-condition overlay,
/// and the shard this process runs. Grids add their own axes on top.
struct GridAxes {
  std::vector<std::string> sites;
  std::vector<std::string> protocols;
  std::vector<net::NetworkKind> networks;
  /// Trials per cell (the paper records at least 31 per condition).
  std::uint32_t runs = 31;
  /// Master seed: keys the site catalog and every cell's base seed.
  std::uint64_t seed = 7;
  /// Variable-rate trace and policer overlay applied to every cell's
  /// network profile (not an axis); the default leaves every profile
  /// untouched.
  net::LinkConditions conditions{};
  /// `--shard i/n`: this process executes the cells with
  /// grid_index % shard_count == shard_index.
  unsigned shard_index = 0;
  unsigned shard_count = 1;

  /// Throws std::invalid_argument on an empty or repeating axis, runs == 0,
  /// or an out-of-range shard.
  void validate() const;

  /// Whether this shard executes the cell at `grid_index`.
  [[nodiscard]] bool owns(std::size_t grid_index) const {
    return grid_index % shard_count == shard_index;
  }

  /// (site, protocol, network) conditions in the grid.
  [[nodiscard]] std::size_t condition_count() const {
    return sites.size() * protocols.size() * networks.size();
  }
};

/// Throws std::invalid_argument when a grid axis is empty or names one value
/// twice (a repeat would run one cell twice and store it once).
template <class T>
void check_axis(const std::vector<T>& values, const std::string& axis) {
  if (values.empty()) throw std::invalid_argument("grid has no " + axis);
  for (auto it = values.begin(); it != values.end(); ++it) {
    if (std::find(values.begin(), it, *it) != it) {
      throw std::invalid_argument("grid repeats a value in " + axis + " (entry " +
                                  std::to_string(it - values.begin() + 1) + ")");
    }
  }
}

/// Durable, resumable keyed store of one grid's records: a durable file of
/// key-sorted records (format and guarantees: ARCHITECTURE.md, "Durable
/// files") whose header starts with `identity`. put() checkpoints every
/// `checkpoint_every` insertions; run_grid calls checkpoint() for the final
/// flush. Thread-safe: every public method locks an internal mutex, so
/// executor workers can put() concurrently.
template <class Codec>
class GridStore {
 public:
  using Key = typename Codec::Key;
  using Record = typename Codec::Record;

  GridStore(std::string path, std::string identity, std::size_t checkpoint_every)
      : path_(std::move(path)),
        identity_(std::move(identity)),
        checkpoint_every_(std::max<std::size_t>(1, checkpoint_every)) {}

  /// Loads this store's own checkpoint file. Returns false (leaving the
  /// store empty) when the file fails the durable-file checks, has another
  /// identity, or holds a malformed or duplicate record.
  [[nodiscard]] bool load() {
    auto loaded = read_records<Codec>(path_, identity_);
    const std::lock_guard<std::mutex> lock(mutex_);
    puts_since_checkpoint_ = 0;
    records_ = loaded ? std::move(*loaded) : RecordMap<Codec>{};
    return loaded.has_value();
  }

  /// Merges another file of this identity (a shard's checkpoint) into
  /// memory; records already held win, nothing is written. Returns false
  /// and merges nothing when the file would not load().
  [[nodiscard]] bool absorb(const std::string& path) {
    auto loaded = read_records<Codec>(path, identity_);
    if (!loaded) return false;
    const std::lock_guard<std::mutex> lock(mutex_);
    records_.merge(*loaded);
    return true;
  }

  /// Inserts (or replaces) one record.
  void put(Record record) {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto key = Codec::key(record);
    records_.insert_or_assign(std::move(key), std::move(record));
    if (++puts_since_checkpoint_ >= checkpoint_every_) checkpoint_locked();
  }

  /// Atomically persists the current contents. Throws std::runtime_error
  /// when the file cannot be written.
  void checkpoint() {
    const std::lock_guard<std::mutex> lock(mutex_);
    checkpoint_locked();
  }

  [[nodiscard]] bool contains(const Key& key) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return records_.contains(key);
  }
  [[nodiscard]] std::size_t size() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return records_.size();
  }
  /// Visits every record in key order.
  void for_each(const std::function<void(const Record&)>& fn) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [key, record] : records_) fn(record);
  }

  [[nodiscard]] const std::string& path() const { return path_; }
  /// The header up to the record count: format magic, then the fields that
  /// decide which records the file may hold.
  [[nodiscard]] const std::string& identity() const { return identity_; }

 private:
  void checkpoint_locked() {
    write_records<Codec>(path_, identity_, records_);
    puts_since_checkpoint_ = 0;
  }

  std::string path_;
  std::string identity_;
  std::size_t checkpoint_every_;
  std::size_t puts_since_checkpoint_ = 0;
  RecordMap<Codec> records_;
  mutable std::mutex mutex_;
};

struct GridProgress {
  std::size_t total = 0;      // tasks in this shard's grid slice
  std::size_t skipped = 0;    // already in the store (resume)
  std::size_t pending = 0;    // scheduled for execution this run
  std::size_t completed = 0;  // finished successfully this run
  double elapsed_seconds = 0.0;
  double tasks_per_second = 0.0;
  /// Estimated seconds until the pending tasks finish (0 when unknown).
  double eta_seconds = 0.0;
  /// Sum of every completed task's transport ledger; integer sums, so the
  /// total does not depend on task completion order.
  net::TransportStats transport;
};

/// One grid cell whose every attempt threw; the run completed the rest and
/// recorded this.
template <class Task>
struct GridFailure {
  Task task;
  unsigned attempts = 0;
  std::string message;
  std::exception_ptr error;
};

struct GridOptions {
  /// Worker threads; 0 = one per hardware thread.
  unsigned jobs = 0;
  /// Attempts per task before recording a failure.
  unsigned max_attempts = 2;
  /// Stop after executing this many pending tasks (0 = unlimited). Tests and
  /// the e2e scripts use it to interrupt a run at a deterministic point; the
  /// next --resume run picks up the rest.
  std::size_t max_tasks = 0;
  /// Throttled progress callback (invoked from worker threads, serialized):
  /// at most one snapshot per progress_interval, plus a final one.
  std::function<void(const GridProgress&)> on_progress;
  std::chrono::milliseconds progress_interval{500};
};

template <class Task>
struct GridReport {
  std::size_t total = 0;
  std::size_t skipped = 0;
  std::size_t executed = 0;  // attempted this run = completed + failures
  std::vector<GridFailure<Task>> failures;
  net::TransportStats transport;
  double elapsed_seconds = 0.0;
};

/// Runs (the spec's shard of) a grid. Tasks whose key the store already
/// holds are skipped (resume); the rest run through the Executor, each
/// putting `run_task(task, site, ledger)` into the store, where `ledger`
/// receives the sum of the task's trial ledgers; the store checkpoints once
/// more at the end. Throws std::invalid_argument on an invalid spec or when
/// the store's identity is not `identity`. A task whose every attempt
/// throws is recorded in the report while the remaining tasks complete.
template <class Spec, class Store, class RunTask>
GridReport<typename Spec::Task> run_grid(const Spec& spec, Store& store,
                                         const std::string& identity,
                                         const GridOptions& options,
                                         const RunTask& run_task) {
  using Task = typename Spec::Task;
  spec.validate();
  if (store.identity() != identity) {
    throw std::invalid_argument("store " + store.path() + " does not match the grid");
  }

  const std::vector<Task> shard_tasks = spec.tasks();
  std::vector<Task> pending;
  pending.reserve(shard_tasks.size());
  for (const auto& task : shard_tasks) {
    if (!store.contains(task.key())) pending.push_back(task);
  }
  GridReport<Task> report;
  report.total = shard_tasks.size();
  report.skipped = report.total - pending.size();
  if (options.max_tasks != 0 && pending.size() > options.max_tasks) {
    pending.resize(options.max_tasks);
  }

  // One catalog for the whole grid; lookups are read-only and shared by the
  // workers.
  const auto catalog = web::study_catalog(spec.seed);
  const auto start = std::chrono::steady_clock::now();
  std::mutex progress_mutex;
  std::size_t completed = 0;
  net::TransportStats totals;
  auto last_emit = start;

  const auto snapshot = [&]() {  // callers hold progress_mutex
    GridProgress progress;
    progress.total = report.total;
    progress.skipped = report.skipped;
    progress.pending = pending.size();
    progress.completed = completed;
    progress.transport = totals;
    progress.elapsed_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    if (progress.elapsed_seconds > 0.0 && completed > 0) {
      progress.tasks_per_second = static_cast<double>(completed) / progress.elapsed_seconds;
      progress.eta_seconds =
          static_cast<double>(pending.size() - completed) / progress.tasks_per_second;
    }
    return progress;
  };

  Executor executor({.jobs = options.jobs, .max_attempts = options.max_attempts});
  auto failures = executor.run(pending.size(), [&](std::size_t index) {
    const Task& task = pending[index];
    net::TransportStats ledger;
    store.put(run_task(task, web::site_by_name(catalog, task.site), ledger));

    // Emitting under the lock serializes the callback and keeps the
    // snapshots in completion order.
    const std::lock_guard<std::mutex> lock(progress_mutex);
    ++completed;
    totals += ledger;
    const auto now = std::chrono::steady_clock::now();
    if (options.on_progress && now - last_emit >= options.progress_interval) {
      last_emit = now;
      options.on_progress(snapshot());
    }
  });
  store.checkpoint();

  report.executed = pending.size();
  report.failures.reserve(failures.size());
  for (auto& failure : failures) {
    report.failures.push_back(GridFailure<Task>{pending[failure.index], failure.attempts,
                                                std::move(failure.message), failure.error});
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

}  // namespace qperc::runner
