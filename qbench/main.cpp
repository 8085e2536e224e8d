// qperc benchmark binary: runs one workload per process.
//
//   qperc_bench --workload paper-pipeline|heavy-mix|contended --seed N
//               --seconds S --trace 0|1 [--work-dir DIR]
//
// --trace 0 times the workload untraced and reports the end-to-end metrics;
// --trace 1 runs the same trials untraced and traced and reports the
// per-layer split. Either way the output is a table, then one JSON object
// holding every metric as the last line. qbench/run.py builds this binary
// and selects the metrics BENCHMARK.json names from that line.
#include "util/alloc_interpose.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/protocol.hpp"
#include "core/trial_context.hpp"
#include "core/video.hpp"
#include "measure.hpp"
#include "net/profile.hpp"
#include "pipeline.hpp"
#include "trial_set.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "web/website.hpp"

namespace qperc::bench {
std::uint64_t heap_allocations_so_far() { return heap_allocations(); }
}  // namespace qperc::bench

namespace {

using namespace qperc;
using namespace qperc::bench;

// Timings from a build with assertions or QPERC_DCHECK invariants compiled in
// do not describe what ships; such a build measures nothing.
#if defined(NDEBUG) && !QPERC_INVARIANTS_ENABLED
constexpr bool kTimingBuild = true;
#else
constexpr bool kTimingBuild = false;
#endif

// __VERSION__ names the compiler itself everywhere but GCC.
#if defined(__GNUC__) && !defined(__clang__)
constexpr const char* kCompiler = "GCC " __VERSION__;
#else
constexpr const char* kCompiler = __VERSION__;
#endif

/// The trial workloads and the grid sample load the paper's site catalog;
/// their inputs are the trial seeds drawn from --seed. (The campaign keys its
/// catalog by --seed; a fixed catalog keeps site shapes out of the spread of
/// per-trial timings across seeds.)
constexpr std::uint64_t kCatalogSeed = 7;
/// Set-ups timed per untraced run; the median is reported.
constexpr std::size_t kSetupRepeats = 7;
/// Trials per cell in one heavy-mix or contended batch, and the number of
/// distinct batches before the stream repeats: a run of at least that many
/// batches runs the same trials whatever the host's speed, so the arena's
/// high-water mark (and with it peak RSS) depends on the seed alone.
constexpr std::size_t kTrialsPerCell = 4;
constexpr std::size_t kBatchCycle = 16;
/// paper-pipeline: trials per grid condition, participants per study, and
/// the stride of the single-thread grid sample (coprime with the 20
/// protocol x network cells, so every cell is sampled).
constexpr std::uint32_t kPipelineRuns = 2;
constexpr std::uint64_t kParticipants = 500'000;
constexpr std::size_t kGridSampleStride = 3;
/// Grid-sample trials that warm the context in set-up and get fresh twins.
constexpr std::size_t kWarmupTrials = 20;
constexpr std::uint32_t kContendedFlows = 16;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".";
};

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

const web::Website& site_named(const std::vector<web::Website>& catalog,
                               const std::string& name) {
  for (const auto& site : catalog) {
    if (site.name == name) return site;
  }
  throw std::invalid_argument("site not in catalog: " + name);
}

Cell make_cell(const web::Website& site, const std::string& protocol, net::NetworkKind network,
               net::ContentionConfig contention = {}) {
  const core::ProtocolConfig& config = core::protocol_by_name(protocol);
  return Cell{&site, &config, net::profile_for(network), contention,
              cell_group(config, network)};
}

/// nytimes.com x {TCP, TCP+BBR, QUIC, QUIC+BBR} x {DSL, LTE, DA2GC, MSS}.
std::vector<Cell> heavy_mix_cells(const std::vector<web::Website>& catalog) {
  std::vector<Cell> cells;
  for (const char* protocol : {"TCP", "TCP+BBR", "QUIC", "QUIC+BBR"}) {
    for (const auto& profile : net::all_profiles()) {
      cells.push_back(make_cell(site_named(catalog, "nytimes.com"), protocol, profile.kind));
    }
  }
  return cells;
}

/// {apache.org, wikipedia.org, nature.com} x {TCP, QUIC} x {DSL, LTE}, each
/// against 16 mixed Cubic/QUIC bulk flows on the shared bottleneck.
std::vector<Cell> contended_cells(const std::vector<web::Website>& catalog) {
  net::ContentionConfig contention;
  contention.flows = kContendedFlows;
  contention.mix = net::CrossMix::kMixed;
  std::vector<Cell> cells;
  for (const char* site : {"apache.org", "wikipedia.org", "nature.com"}) {
    for (const char* protocol : {"TCP", "QUIC"}) {
      for (const auto network : {net::NetworkKind::kDsl, net::NetworkKind::kLte}) {
        cells.push_back(make_cell(site_named(catalog, site), protocol, network, contention));
      }
    }
  }
  return cells;
}

/// Every kGridSampleStride-th condition of the paper grid, in campaign order.
std::vector<Cell> grid_sample_cells(const std::vector<web::Website>& catalog) {
  std::vector<Cell> cells;
  std::size_t index = 0;
  for (const auto& site : catalog) {
    for (const auto& protocol : core::paper_protocols()) {
      for (const auto& profile : net::all_profiles()) {
        if (index++ % kGridSampleStride == 0) {
          cells.push_back(make_cell(site, protocol.name, profile.kind));
        }
      }
    }
  }
  return cells;
}

/// Batch `b` (of kBatchCycle distinct ones) of the round-robin stream: trial
/// i runs cell i % cells with a seed forked from --seed by i.
std::vector<TrialInput> stream_batch(std::uint64_t seed, std::size_t cells, std::size_t b) {
  const Rng root(seed);
  const std::size_t size = cells * kTrialsPerCell;
  std::vector<TrialInput> batch;
  b %= kBatchCycle;
  for (std::size_t i = b * size; i < (b + 1) * size; ++i) {
    batch.push_back(TrialInput{static_cast<std::uint32_t>(i % cells), root.fork(i).next_u64()});
  }
  return batch;
}

/// One trial per sampled condition, seeded as a campaign with this seed seeds
/// that condition's first run.
std::vector<TrialInput> grid_sample_inputs(const std::vector<Cell>& cells,
                                           std::uint64_t seed) {
  std::vector<TrialInput> inputs;
  for (std::uint32_t i = 0; i < cells.size(); ++i) {
    const Cell& cell = cells[i];
    const Rng base(core::condition_base_seed(seed, cell.site->name, cell.protocol->name,
                                             cell.profile.kind));
    inputs.push_back(TrialInput{i, base.fork(1).next_u64()});
  }
  return inputs;
}

/// The catalog, the cells over it, and one warm TrialContext.
struct TrialWorkload {
  std::vector<web::Website> catalog;
  TrialSet set;
  core::TrialContext context;

  TrialWorkload(std::uint64_t catalog_seed,
                std::vector<Cell> (*build)(const std::vector<web::Website>&))
      : catalog(web::study_catalog(catalog_seed)), set(build(catalog)) {}
};

/// Set-up is timed kSetupRepeats times, spread evenly over an untraced run so
/// that its median sees the same host conditions as the measurement. Each
/// set-up replaces the state the following passes use, as a fresh start
/// would. Returns whether the next one is due `elapsed_s` into the run.
bool setup_due(std::size_t done, double elapsed_s, double seconds) {
  return done < kSetupRepeats &&
         static_cast<double>(done) <= elapsed_s / seconds * (kSetupRepeats - 1);
}

std::string hex(std::uint64_t value) {
  char text[19];
  std::snprintf(text, sizeof text, "%016llx", static_cast<unsigned long long>(value));
  return text;
}

/// Per-layer metrics over untraced + traced passes of `trials`, repeated
/// until the deadline (at least one round). Returns the steady-state heap
/// allocations per trial of the reused context (last untraced pass).
double measure_layers(TrialWorkload& w, const std::vector<TrialInput>& trials, double seconds,
                      const std::string& digest_label, Report& report) {
  std::vector<Pass> untraced;
  std::vector<Pass> traced;
  LayerSink sink;
  const std::int64_t start = now_ns();
  do {
    untraced.push_back(w.set.run(w.context, trials, report));
    traced.push_back(w.set.run(w.context, trials, report, &sink));
  } while (seconds_since(start) < seconds);
  add_layer_metrics(w.set, trials, untraced, traced, report);
  w.set.add_cell_table(trials, untraced, report);
  w.set.check_fresh_twins(trials, untraced.front(), w.set.cells().size(), report);
  report.add("core.arena_kb", static_cast<double>(w.context.arena_bytes_reserved()) / 1024.0,
             "KiB", 1);
  report.note(digest_label, hex(pass_digest(untraced.front())));
  return static_cast<double>(untraced.back().allocations) /
         static_cast<double>(trials.size());
}

/// heavy-mix and contended: closed-loop batches on one thread.
void run_trial_workload(const Options& options,
                        std::vector<Cell> (*build)(const std::vector<web::Website>&),
                        Report& report) {
  std::vector<double> setup_s;
  std::unique_ptr<TrialWorkload> w;
  const auto set_up = [&] {
    w.reset();
    const std::int64_t start = now_ns();
    w = std::make_unique<TrialWorkload>(kCatalogSeed, build);
    const std::size_t cells = w->set.cells().size();
    const auto warmup = stream_batch(options.seed, cells, 0);
    for (std::size_t i = 0; i < cells; ++i) (void)w->context.run(w->set.spec(warmup[i]));
    setup_s.push_back(seconds_since(start));
  };
  set_up();
  const std::size_t cells = w->set.cells().size();
  const auto batch0 = stream_batch(options.seed, cells, 0);
  report.note("batch", std::to_string(cells) + " cells x " + std::to_string(kTrialsPerCell) +
                           " trials");

  if (options.trace) {
    const double cpu = process_cpu_s();
    const std::int64_t start = now_ns();
    const double allocs = measure_layers(*w, batch0, options.seconds, "digest", report);
    report.add("core.allocs_per_trial", allocs, "count", batch0.size());
    report.add("runner.busy_ratio", (process_cpu_s() - cpu) / seconds_since(start), "ratio", 1);
    report.add("setup_s", median(setup_s), "s", setup_s.size());
    return;
  }

  // Every batch assigns the same cell to the same position, so the per-cell
  // table can index all passes by batch 0's cells.
  std::vector<Pass> passes;
  const std::int64_t start = now_ns();
  std::size_t b = 0;
  do {
    if (setup_due(setup_s.size(), seconds_since(start), options.seconds)) set_up();
    passes.push_back(w->set.run(w->context, stream_batch(options.seed, cells, b), report));
    if (b >= kBatchCycle) {
      report.check(passes.back().digests == passes[b % kBatchCycle].digests,
                   "batch " + std::to_string(b) + " reproduces its first run");
    }
    ++b;
  } while (seconds_since(start) < options.seconds);
  while (setup_s.size() < kSetupRepeats) set_up();
  report.add("setup_s", median(setup_s), "s", setup_s.size());

  // Rates are totals over the run: under host contention that comes and goes
  // they move with its share of the run, where a median over batches would
  // jump between the contended and uncontended speed.
  std::vector<double> trial_ns;
  std::vector<double> batch_s;
  double wall_ns = 0.0;
  double cpu_s = 0.0;
  for (const Pass& pass : passes) {
    trial_ns.insert(trial_ns.end(), pass.trial_ns.begin(), pass.trial_ns.end());
    batch_s.push_back(pass.wall_ns / 1e9);
    wall_ns += pass.wall_ns;
    cpu_s += pass.cpu_s;
  }
  const auto trials = static_cast<double>(trial_ns.size());
  report.add("wall_s", median(batch_s), "s", batch_s.size());
  report.add("trials_per_s", trials / wall_ns * 1e9, "1/s", trial_ns.size());
  report.add("cpu_ms_per_trial", cpu_s / trials * 1e3, "ms", trial_ns.size());
  report.add("trial_ms_p50", quantile(trial_ns, 0.50) / 1e6, "ms", trial_ns.size());
  report.add("trial_ms_p95", quantile(trial_ns, 0.95) / 1e6, "ms", trial_ns.size());
  std::uint64_t events = 0;
  for (const std::uint64_t e : passes.front().events) events += e;
  report.add("sim.events_per_trial",
             static_cast<double>(events) / static_cast<double>(batch0.size()), "count",
             batch0.size());
  w->set.add_cell_table(batch0, passes, report);
  w->set.check_fresh_twins(batch0, passes.front(), cells, report);
  report.note("digest", hex(pass_digest(passes.front())));
  report.note("participants_per_s", "n/a (no study stage in this workload)");
}

/// paper-pipeline: campaign + studies at min(nproc, 4) jobs, plus a
/// single-thread sample of the grid for per-trial host time.
void run_paper_pipeline(const Options& options, unsigned jobs, Report& report) {
  PipelineConfig config;
  config.seed = options.seed;
  config.jobs = jobs;
  config.runs = kPipelineRuns;
  config.participants = kParticipants;
  config.store_path = options.work_dir + "/campaign.qcr";

  std::vector<double> setup_s;
  std::unique_ptr<Pipeline> pipeline;
  std::unique_ptr<TrialWorkload> sample;
  const auto set_up = [&] {
    sample.reset();
    pipeline.reset();
    const std::int64_t start = now_ns();
    pipeline = std::make_unique<Pipeline>(config);
    sample = std::make_unique<TrialWorkload>(kCatalogSeed, grid_sample_cells);
    const auto warmup = grid_sample_inputs(sample->set.cells(), options.seed);
    for (std::size_t i = 0; i < kWarmupTrials; ++i) {
      (void)sample->context.run(sample->set.spec(warmup[i]));
    }
    setup_s.push_back(seconds_since(start));
  };
  set_up();
  const auto sample_inputs = grid_sample_inputs(sample->set.cells(), options.seed);
  report.note("pipeline", std::to_string(pipeline->grid_size()) + " conditions x " +
                              std::to_string(kPipelineRuns) + " runs, " +
                              std::to_string(kParticipants) + " participants per study");
  report.note("grid sample", std::to_string(sample_inputs.size()) + " conditions, 1 trial each");

  // Untraced: each pipeline pass is followed by one grid-sample pass, so
  // per-trial host times are medians over as many passes as the pipeline's.
  const std::int64_t start = now_ns();
  std::vector<PipelineRun> runs;
  std::vector<Pass> samples;
  double last_s = 0.0;
  do {
    if (setup_due(setup_s.size(), seconds_since(start), options.seconds)) set_up();
    const std::int64_t pass_start = now_ns();
    runs.push_back(pipeline->run(report));
    report.check(runs.back().digest == runs.front().digest,
                 "pipeline pass reproduces the first pass");
    if (options.trace) break;
    samples.push_back(sample->set.run(sample->context, sample_inputs, report));
    report.check(samples.back().digests == samples.front().digests,
                 "grid sample pass reproduces the first pass");
    last_s = seconds_since(pass_start);
  } while (seconds_since(start) + last_s <= options.seconds);
  if (!options.trace) {
    while (setup_s.size() < kSetupRepeats) set_up();
  }
  report.add("setup_s", median(setup_s), "s", setup_s.size());
  report.note("digest", hex(runs.front().digest));

  const auto med = [&runs](auto field) {
    std::vector<double> values;
    for (const PipelineRun& run : runs) values.push_back(field(run));
    return median(std::move(values));
  };
  const double participants = 2.0 * static_cast<double>(kParticipants);
  const std::size_t n = runs.size();
  report.add("participants_per_s",
             med([&](const PipelineRun& r) { return participants / (r.ab_s + r.rating_s); }),
             "1/s", n);
  report.add("runner.busy_ratio", med([&](const PipelineRun& r) {
               return r.campaign_cpu_s / (r.campaign_s * jobs);
             }),
             "ratio", n);
  report.add("runner.store_save_ms", med([](const PipelineRun& r) { return r.store_save_ms; }),
             "ms", n);
  report.add("runner.store_load_ms", med([](const PipelineRun& r) { return r.store_load_ms; }),
             "ms", n);
  report.add("runner.adopt_ms", med([](const PipelineRun& r) { return r.adopt_ms; }), "ms", n);
  report.add("population.ab_s", med([](const PipelineRun& r) { return r.ab_s; }), "s", n);
  report.add("population.rating_s", med([](const PipelineRun& r) { return r.rating_s; }), "s",
             n);
  report.add("population.busy_ratio", med([&](const PipelineRun& r) {
               return r.study_cpu_s / ((r.ab_s + r.rating_s) * jobs);
             }),
             "ratio", n);
  report.add("population.report_ms", med([](const PipelineRun& r) { return r.report_ms; }),
             "ms", n);
  report.add("population.trials_simulated",
             static_cast<double>(runs.front().trials_simulated), "count", n);
  // produce_video builds a fresh context per trial: the campaign's
  // allocations, not the sample's warm context, are this workload's cost.
  report.add("core.allocs_per_trial", med([](const PipelineRun& r) {
               return static_cast<double>(r.campaign_allocations) /
                      static_cast<double>(r.trials);
             }),
             "count", n);

  if (options.trace) {
    (void)measure_layers(*sample, sample_inputs, options.seconds - seconds_since(start),
                         "grid sample digest", report);
    return;
  }
  report.add("wall_s", med([](const PipelineRun& r) { return r.wall_s; }), "s", n);
  report.add("trials_per_s",
             med([](const PipelineRun& r) { return static_cast<double>(r.trials) / r.campaign_s; }),
             "1/s", n);
  report.add("cpu_ms_per_trial", med([](const PipelineRun& r) {
               return r.campaign_cpu_s / static_cast<double>(r.trials) * 1e3;
             }),
             "ms", n);
  std::vector<double> trial_ms;
  for (std::size_t i = 0; i < sample_inputs.size(); ++i) {
    std::vector<double> passes_ns;
    for (const Pass& pass : samples) passes_ns.push_back(pass.trial_ns[i]);
    trial_ms.push_back(median(std::move(passes_ns)) / 1e6);
  }
  report.add("trial_ms_p50", quantile(trial_ms, 0.50), "ms", trial_ms.size());
  report.add("trial_ms_p95", quantile(trial_ms, 0.95), "ms", trial_ms.size());
  sample->set.add_cell_table(sample_inputs, samples, report);
  sample->set.check_fresh_twins(sample_inputs, samples.front(), kWarmupTrials, report);
}

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "qperc_bench: " << problem
            << "\nusage: qperc_bench --workload paper-pipeline|heavy-mix|contended --seed N"
               " --seconds S --trace 0|1 [--work-dir DIR]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        options.trace = value == "1";
      } else if (flag == "--work-dir") {
        options.work_dir = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!(options.seconds > 0.0)) usage("--seconds must be positive");
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  if (!kTimingBuild) {
    std::cerr << "qperc_bench: refusing to report timings from a build without NDEBUG or "
                 "with QPERC_ENABLE_INVARIANTS\n";
    return 2;
  }
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  const unsigned jobs =
      options.workload == "paper-pipeline" ? std::min(nproc, 4u) : 1u;

  Report report;
  report.note("workload", options.workload);
  report.note("seed", std::to_string(options.seed));
  report.note("trace", options.trace ? "1" : "0");
  report.note("nproc", std::to_string(nproc));
  report.note("jobs", std::to_string(jobs));
  report.note("compiler", kCompiler);
  try {
    std::filesystem::create_directories(options.work_dir);
    if (options.workload == "paper-pipeline") {
      run_paper_pipeline(options, jobs, report);
    } else if (options.workload == "heavy-mix") {
      run_trial_workload(options, heavy_mix_cells, report);
    } else if (options.workload == "contended") {
      run_trial_workload(options, contended_cells, report);
    } else {
      usage("unknown workload " + options.workload);
    }
  } catch (const std::exception& error) {
    std::cerr << "qperc_bench: " << error.what() << "\n";
    return 1;
  }
  report.add("peak_rss_mb", peak_rss_mb(), "MiB", 1);
  report.add("fail_rate",
             report.attempted() == 0 ? 0.0
                                     : static_cast<double>(report.failed()) /
                                           static_cast<double>(report.attempted()),
             "ratio", report.attempted());
  report.print(std::cout);
  return 0;
}
