// Microbenchmarks (google-benchmark): raw performance of the simulation
// substrate — event scheduling, timer re-arm, congestion-controller updates,
// RNG, link emulation, metric computation, and a full page-load trial per
// stack.
//
// Two modes:
//   * default: the usual google-benchmark CLI (--benchmark_filter=...),
//   * --qperc_json PATH [--qperc_iters N]: runs the fixed scheduler/timer/
//     page-load measurement suite and writes the machine-readable
//     BENCH_micro.json perf baseline (schema qperc-bench-micro-v6) that
//     scripts/bench_baseline.sh diffs against the checked-in numbers.
//     N scales the iteration counts (default 100; 1 = smoke test).
//
// The binary interposes global operator new/delete with a counting shim
// (util/alloc_interpose.hpp) so allocations per trial / per scheduled event
// are part of the baseline: the slab event store's and trial arena's "zero
// allocation steady state" claims are measured, not asserted.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "browser/metrics.hpp"
#include "cc/bbr.hpp"
#include "cc/cubic.hpp"
#include "core/protocol.hpp"
#include "core/trial.hpp"
#include "core/trial_context.hpp"
#include "core/video.hpp"
#include "net/contention.hpp"
#include "net/link.hpp"
#include "net/profile.hpp"
#include "population/population_study.hpp"
#include "sim/simulator.hpp"
#include "stats/stats.hpp"
#include "trace/trace.hpp"
#include "util/alloc_interpose.hpp"
#include "util/rng.hpp"
#include "web/website.hpp"

namespace qperc {
namespace {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double elapsed_ns(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::nano>(t1 - t0).count();
}

void BM_SimulatorScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator simulator;
    std::uint64_t counter = 0;
    for (int i = 0; i < 1000; ++i) {
      simulator.schedule_in(microseconds(i), [&counter] { ++counter; });
    }
    simulator.run();
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimulatorScheduleRun);

/// The RTO/TLP/delayed-ACK pattern: one timer re-armed over and over. The
/// slab scheduler reschedules the existing slot in place, so this must be a
/// small constant cost with zero allocations and bounded queue depth.
void BM_TimerReArm(benchmark::State& state) {
  sim::Simulator simulator;
  std::uint64_t fired = 0;
  sim::Timer timer(simulator, [&fired] { ++fired; });
  int i = 0;
  for (auto _ : state) {
    timer.set_in(milliseconds(10));
    if ((++i & 63) == 0) simulator.run_until(simulator.now() + milliseconds(1));
    benchmark::DoNotOptimize(timer.deadline());
  }
  timer.cancel();
  simulator.run();
  benchmark::DoNotOptimize(fired);
}
BENCHMARK(BM_TimerReArm);

void BM_SimulatorCancel(benchmark::State& state) {
  sim::Simulator simulator;
  std::uint64_t counter = 0;
  for (auto _ : state) {
    const sim::EventId id = simulator.schedule_in(seconds(1), [&counter] { ++counter; });
    simulator.cancel(id);
  }
  simulator.run();
  benchmark::DoNotOptimize(counter);
}
BENCHMARK(BM_SimulatorCancel);

void BM_RngNextU64(benchmark::State& state) {
  Rng rng(42);
  for (auto _ : state) benchmark::DoNotOptimize(rng.next_u64());
}
BENCHMARK(BM_RngNextU64);

void BM_CubicOnAck(benchmark::State& state) {
  cc::Cubic cubic(cc::CubicConfig{.initial_window_segments = 32});
  cc::AckSample sample;
  sample.bytes_acked = 1460;
  sample.rtt = milliseconds(50);
  sample.smoothed_rtt = milliseconds(50);
  SimTime now{0};
  for (auto _ : state) {
    now += microseconds(100);
    cubic.on_ack(now, sample);
    benchmark::DoNotOptimize(cubic.congestion_window());
  }
}
BENCHMARK(BM_CubicOnAck);

void BM_BbrOnAck(benchmark::State& state) {
  cc::Bbr bbr(cc::BbrConfig{});
  cc::AckSample sample;
  sample.bytes_acked = 1460;
  sample.rtt = milliseconds(50);
  sample.smoothed_rtt = milliseconds(50);
  sample.delivery_rate = DataRate::megabits_per_second(10.0);
  sample.bytes_in_flight = 64'000;
  SimTime now{0};
  std::uint64_t i = 0;
  for (auto _ : state) {
    now += microseconds(100);
    sample.round_trip_ended = (++i % 50) == 0;
    bbr.on_ack(now, sample);
    benchmark::DoNotOptimize(bbr.congestion_window());
  }
}
BENCHMARK(BM_BbrOnAck);

void BM_LinkSaturated(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator simulator;
    std::uint64_t delivered = 0;
    net::Link link(simulator, DataRate::megabits_per_second(100.0), milliseconds(1), 0.0,
                   1'000'000, Rng(1), [&](net::Packet) { ++delivered; });
    for (int i = 0; i < 500; ++i) {
      net::Packet packet;
      packet.wire_bytes = 1500;
      link.send(packet);
    }
    simulator.run();
    benchmark::DoNotOptimize(delivered);
  }
  state.SetItemsProcessed(state.iterations() * 500);
}
BENCHMARK(BM_LinkSaturated);

void BM_PearsonCorrelation(benchmark::State& state) {
  Rng rng(9);
  std::vector<double> x(1000);
  std::vector<double> y(1000);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = rng.normal(0, 1);
    y[i] = x[i] * 0.5 + rng.normal(0, 1);
  }
  for (auto _ : state) benchmark::DoNotOptimize(stats::pearson(x, y));
}
BENCHMARK(BM_PearsonCorrelation);

void BM_PageLoadTrial(benchmark::State& state) {
  const auto catalog = web::study_catalog(7);
  const auto& site = catalog[static_cast<std::size_t>(state.range(0))];
  const auto& protocol =
      core::paper_protocols()[static_cast<std::size_t>(state.range(1))];
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const auto result =
        core::run_trial(core::TrialSpec(site, protocol, net::dsl_profile(), seed++));
    benchmark::DoNotOptimize(result.metrics.plt_ms());
  }
  state.SetLabel(site.name + " / " + protocol.name);
}
// Site 6 = apache.org (small); site 4 = nytimes.com (large). Protocols 0=TCP, 3=QUIC.
BENCHMARK(BM_PageLoadTrial)->Args({6, 0})->Args({6, 3})->Args({4, 0})->Args({4, 3})
    ->Unit(benchmark::kMillisecond);

/// Same trial with a counting sink attached: the cost of actually tracing.
/// Compare against BM_PageLoadTrial to verify the null-sink default stays
/// zero-cost (one pointer test per hook).
void BM_PageLoadTrialTraced(benchmark::State& state) {
  struct CountingSink final : trace::TraceSink {
    std::uint64_t events = 0;
    void on_event(const trace::Event&) override { ++events; }
  };
  const auto catalog = web::study_catalog(7);
  const auto& site = catalog[static_cast<std::size_t>(state.range(0))];
  const auto& protocol =
      core::paper_protocols()[static_cast<std::size_t>(state.range(1))];
  std::uint64_t seed = 1;
  for (auto _ : state) {
    CountingSink sink;
    const auto result = core::run_trial(
        core::TrialSpec(site, protocol, net::dsl_profile(), seed++).with_trace(&sink));
    benchmark::DoNotOptimize(result.metrics.plt_ms());
    benchmark::DoNotOptimize(sink.events);
  }
  state.SetLabel(site.name + " / " + protocol.name + " (traced)");
}
BENCHMARK(BM_PageLoadTrialTraced)->Args({6, 0})->Args({6, 3})
    ->Unit(benchmark::kMillisecond);

/// Same trial through a heavily impaired link (reordering + duplication +
/// Gilbert–Elliott bursts). Compare against BM_PageLoadTrial for the cost of
/// the impairment stage — and note the impairment-free path stays on the
/// exact pre-impairment RNG/branch sequence (goldens are bit-exact).
void BM_PageLoadTrialImpaired(benchmark::State& state) {
  const auto catalog = web::study_catalog(7);
  const auto& site = catalog[static_cast<std::size_t>(state.range(0))];
  const auto& protocol =
      core::paper_protocols()[static_cast<std::size_t>(state.range(1))];
  net::NetworkProfile profile = net::dsl_profile();
  profile.impairments.reorder_rate = 0.2;
  profile.impairments.reorder_delay_min = milliseconds(1);
  profile.impairments.reorder_delay_max = milliseconds(30);
  profile.impairments.duplicate_rate = 0.1;
  profile.impairments.gilbert_elliott = net::GilbertElliott{
      .enter_bad = 0.02, .exit_bad = 0.3, .loss_good = 0.0, .loss_bad = 0.4};
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const auto result = core::run_trial(core::TrialSpec(site, protocol, profile, seed++));
    benchmark::DoNotOptimize(result.metrics.plt_ms());
  }
  state.SetLabel(site.name + " / " + protocol.name + " (impaired)");
}
BENCHMARK(BM_PageLoadTrialImpaired)->Args({6, 0})->Args({6, 3})
    ->Unit(benchmark::kMillisecond);

/// Same trial over an LTE-trace downlink schedule: every serialization end
/// is a piecewise integral across rate epochs instead of one division.
/// Compare against BM_PageLoadTrial for the cost of variable-rate links; the
/// schedule-free path stays on the single-division fast path (bit-exact
/// goldens).
void BM_PageLoadTrialScheduled(benchmark::State& state) {
  const auto catalog = web::study_catalog(7);
  const auto& site = catalog[static_cast<std::size_t>(state.range(0))];
  const auto& protocol =
      core::paper_protocols()[static_cast<std::size_t>(state.range(1))];
  net::NetworkProfile profile = net::dsl_profile();
  profile.downlink_schedule = net::RateSchedule::lte_trace(profile.downlink, 11);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const auto result = core::run_trial(core::TrialSpec(site, protocol, profile, seed++));
    benchmark::DoNotOptimize(result.metrics.plt_ms());
  }
  state.SetLabel(site.name + " / " + protocol.name + " (lte schedule)");
}
BENCHMARK(BM_PageLoadTrialScheduled)->Args({6, 0})->Args({6, 3})
    ->Unit(benchmark::kMillisecond);

/// The page load sharing its bottleneck with a 16-flow cubic crowd: the
/// multi-endpoint network, the cross-traffic sources, and a droptail queue
/// under sustained pressure. Compare against BM_PageLoadTrial for the cost
/// of contention; the contention-free path is unaffected (bit-exact goldens).
void BM_MultiFlowTrial(benchmark::State& state) {
  const auto catalog = web::study_catalog(7);
  const auto& site = catalog[static_cast<std::size_t>(state.range(0))];
  const auto& protocol =
      core::paper_protocols()[static_cast<std::size_t>(state.range(1))];
  net::ContentionConfig contention;
  contention.flows = static_cast<std::uint32_t>(state.range(2));
  contention.mix = net::CrossMix::kCubic;
  core::TrialContext context;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const auto result = context.run(
        core::TrialSpec(site, protocol, net::dsl_profile(), seed++)
            .with_contention(contention));
    benchmark::DoNotOptimize(result.metrics.plt_ms());
  }
  state.SetLabel(site.name + " / " + protocol.name + " / " +
                 std::to_string(contention.flows) + " flows");
}
BENCHMARK(BM_MultiFlowTrial)->Args({6, 3, 4})->Args({6, 3, 16})
    ->Unit(benchmark::kMillisecond);

/// Shared warm stimulus cache for the population-study benchmark: the
/// per-condition trial cost is paid once and amortised, so the measurement
/// isolates the streaming engine itself (trait sampling, funnel, rater,
/// accumulator folds).
core::VideoLibrary& population_library() {
  static core::VideoLibrary library(7, 2);
  return library;
}

population::StudySpec population_spec(std::uint64_t participants) {
  population::StudySpec spec;
  spec.kind = qperc::study::StudyKind::kRating;
  spec.group = qperc::study::Group::kMicroworker;
  spec.participants = participants;
  spec.seed = 7;
  spec.sites = 5;
  spec.video_runs = 2;
  return spec;
}

/// End-to-end streaming study throughput per worker thread. range(0) is the
/// participant count; single job so the number is a per-core rate.
void BM_PopulationStudy(benchmark::State& state) {
  auto& library = population_library();
  const auto spec = population_spec(static_cast<std::uint64_t>(state.range(0)));
  population::RunOptions options;
  options.jobs = 1;
  for (auto _ : state) {
    const auto report = population::run_streaming_study(library, spec, options);
    benchmark::DoNotOptimize(report.accumulator.votes);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.SetLabel("participants/iter=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_PopulationStudy)->Arg(1 << 12)->Arg(1 << 14)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// --qperc_json mode: the fixed measurement suite behind BENCH_micro.json.

struct MicroResults {
  double ns_per_schedule = 0;
  double ns_per_rearm = 0;
  double scheduler_events_per_sec = 0;
  std::uint64_t scheduler_allocs_steady_state = 0;
  std::uint64_t rearm_queue_depth_max = 0;
  double ns_per_page_load_trial = 0;
  double ns_per_scheduled_trial = 0;
  double ns_per_multiflow_trial = 0;
  double trials_per_sec = 0;
  std::uint64_t allocations_per_trial = 0;
  std::uint64_t events_per_trial = 0;
  double participants_per_sec = 0;
  double bytes_per_participant = 0;
};

/// Cost of schedule_in alone (drain excluded), plus steady-state allocation
/// count over the whole timed region — must be 0 for the slab store.
void measure_scheduler(MicroResults& out, int scale) {
  constexpr int kBatch = 10'000;
  const int rounds = 20 * scale;
  sim::Simulator simulator;
  std::uint64_t counter = 0;
  // Warm-up round grows the slab and queue to their high-water marks.
  for (int i = 0; i < kBatch; ++i)
    simulator.schedule_in(microseconds(i), [&counter] { ++counter; });
  simulator.run();
  const std::uint64_t allocs_before = qperc::heap_allocations();
  double schedule_ns = 0;
  double total_ns = 0;
  for (int r = 0; r < rounds; ++r) {
    const auto t0 = Clock::now();
    for (int i = 0; i < kBatch; ++i)
      simulator.schedule_in(microseconds(i), [&counter] { ++counter; });
    const auto t1 = Clock::now();
    simulator.run();
    const auto t2 = Clock::now();
    schedule_ns += elapsed_ns(t0, t1);
    total_ns += elapsed_ns(t0, t2);
  }
  const double events = static_cast<double>(kBatch) * rounds;
  out.ns_per_schedule = schedule_ns / events;
  out.scheduler_events_per_sec = events / (total_ns * 1e-9);
  out.scheduler_allocs_steady_state =
      qperc::heap_allocations() - allocs_before;
}

void measure_rearm(MicroResults& out, int scale) {
  constexpr int kBatch = 10'000;
  const int rounds = 20 * scale;
  sim::Simulator simulator;
  std::uint64_t fired = 0;
  sim::Timer timer(simulator, [&fired] { ++fired; });
  timer.set_in(milliseconds(10));
  simulator.run_until(simulator.now() + milliseconds(1));
  double rearm_ns = 0;
  std::uint64_t max_depth = 0;
  for (int r = 0; r < rounds; ++r) {
    const auto t0 = Clock::now();
    for (int i = 0; i < kBatch; ++i) timer.set_in(milliseconds(10));
    const auto t1 = Clock::now();
    rearm_ns += elapsed_ns(t0, t1);
    max_depth = std::max<std::uint64_t>(max_depth, simulator.queue_depth());
    simulator.run_until(simulator.now() + milliseconds(1));
  }
  out.ns_per_rearm = rearm_ns / (static_cast<double>(kBatch) * rounds);
  out.rearm_queue_depth_max = max_depth;
}

/// Steady-state trial throughput through a reused TrialContext: warm-up
/// trials grow the arena and container capacities to their high-water marks,
/// then a timed batch measures ns/trial, trials/sec, and allocations/trial.
void measure_trial(MicroResults& out, int scale) {
  const auto catalog = web::study_catalog(7);
  const web::Website* site = nullptr;
  for (const auto& candidate : catalog) {
    if (candidate.name == "apache.org") site = &candidate;
  }
  const auto& protocol = core::protocol_by_name("QUIC");
  const net::NetworkProfile profile = net::dsl_profile();
  core::TrialContext context;
  // Warm-up: first trial allocates arena blocks, later trials settle any
  // capacity growth driven by seed-dependent schedules.
  std::uint64_t seed = 1;
  for (int i = 0; i < 3; ++i) {
    benchmark::DoNotOptimize(
        context.run(core::TrialSpec(*site, protocol, profile, seed++)));
  }
  const int rounds = 100 * scale;
  const std::uint64_t allocs_before = qperc::heap_allocations();
  const auto t0 = Clock::now();
  for (int r = 0; r < rounds; ++r) {
    const auto result =
        context.run(core::TrialSpec(*site, protocol, profile, seed++));
    benchmark::DoNotOptimize(result.metrics.plt_ms());
  }
  const auto t1 = Clock::now();
  const double total_ns = elapsed_ns(t0, t1);
  out.ns_per_page_load_trial = total_ns / rounds;
  out.trials_per_sec = rounds / (total_ns * 1e-9);
  out.allocations_per_trial =
      (qperc::heap_allocations() - allocs_before) /
      static_cast<std::uint64_t>(rounds);
}

/// Steady-state trial cost over an LTE-trace downlink schedule through the
/// same reused TrialContext: the piecewise serialize_end integration and the
/// epoch-boundary rate changes priced against the clean page load above.
void measure_scheduled_trial(MicroResults& out, int scale) {
  const auto catalog = web::study_catalog(7);
  const web::Website* site = nullptr;
  for (const auto& candidate : catalog) {
    if (candidate.name == "apache.org") site = &candidate;
  }
  const auto& protocol = core::protocol_by_name("QUIC");
  net::NetworkProfile profile = net::dsl_profile();
  profile.downlink_schedule = net::RateSchedule::lte_trace(profile.downlink, 11);
  core::TrialContext context;
  std::uint64_t seed = 1;
  for (int i = 0; i < 3; ++i) {
    benchmark::DoNotOptimize(
        context.run(core::TrialSpec(*site, protocol, profile, seed++)));
  }
  const int rounds = 50 * scale;
  const auto t0 = Clock::now();
  for (int r = 0; r < rounds; ++r) {
    const auto result =
        context.run(core::TrialSpec(*site, protocol, profile, seed++));
    benchmark::DoNotOptimize(result.metrics.plt_ms());
  }
  const auto t1 = Clock::now();
  out.ns_per_scheduled_trial = elapsed_ns(t0, t1) / rounds;
}

/// Steady-state cost of the contended 16-flow cubic cell through the same
/// reused TrialContext. Contended trials simulate a bottleneck under
/// sustained queue pressure, so each one is orders of magnitude more work
/// than the clean page load above — fewer rounds keep the suite fast.
void measure_multiflow_trial(MicroResults& out, int scale) {
  const auto catalog = web::study_catalog(7);
  const web::Website* site = nullptr;
  for (const auto& candidate : catalog) {
    if (candidate.name == "apache.org") site = &candidate;
  }
  const auto& protocol = core::protocol_by_name("QUIC");
  const net::NetworkProfile profile = net::dsl_profile();
  net::ContentionConfig contention;
  contention.flows = 16;
  contention.mix = net::CrossMix::kCubic;
  core::TrialContext context;
  std::uint64_t seed = 1;
  for (int i = 0; i < 3; ++i) {
    benchmark::DoNotOptimize(
        context.run(core::TrialSpec(*site, protocol, profile, seed++)
                        .with_contention(contention)));
  }
  const int rounds = 5 * scale;
  const auto t0 = Clock::now();
  for (int r = 0; r < rounds; ++r) {
    const auto result =
        context.run(core::TrialSpec(*site, protocol, profile, seed++)
                        .with_contention(contention));
    benchmark::DoNotOptimize(result.metrics.plt_ms());
  }
  const auto t1 = Clock::now();
  out.ns_per_multiflow_trial = elapsed_ns(t0, t1) / rounds;
}

/// Single-core streaming-study rate and marginal heap traffic. A warm-up run
/// settles the stimulus cache and every reusable buffer; the timed run then
/// measures participants/sec and heap bytes per participant — the population
/// engine's O(1)-memory claim as a ratcheted number (near zero: only
/// per-round bookkeeping remains on the heap).
void measure_population(MicroResults& out, int scale) {
  auto& library = population_library();
  population::RunOptions options;
  options.jobs = 1;
  const std::uint64_t participants =
      1000ULL * static_cast<std::uint64_t>(scale < 20 ? scale : 20);
  (void)population::run_streaming_study(library, population_spec(participants), options);
  // Heap bytes one run of n participants allocates (and its time, if asked).
  const auto run_bytes = [&](std::uint64_t n, double* elapsed) {
    const std::uint64_t bytes_before = qperc::heap_bytes_allocated();
    const auto t0 = Clock::now();
    const auto report = population::run_streaming_study(library, population_spec(n), options);
    const auto t1 = Clock::now();
    benchmark::DoNotOptimize(report.accumulator.votes);
    if (elapsed != nullptr) *elapsed = elapsed_ns(t0, t1);
    return static_cast<double>(qperc::heap_bytes_allocated() - bytes_before);
  };
  double total_ns = 0;
  const double bytes_n = run_bytes(participants, &total_ns);
  const double bytes_2n = run_bytes(2 * participants, nullptr);
  out.participants_per_sec = static_cast<double>(participants) / (total_ns * 1e-9);
  // Marginal: per-run setup (stimulus pools, accumulators, round buffers) is
  // the same at n and 2n, so only per-participant traffic is left.
  out.bytes_per_participant = (bytes_2n - bytes_n) / static_cast<double>(participants);
}

/// Events fired by the fixed (apache.org, QUIC, DSL, seed 1) trial — a cheap
/// canary: if scheduling behaviour drifts, this number moves and the
/// baseline diff flags it even when timings are noisy.
std::uint64_t probe_events_per_trial() {
  const auto catalog = web::study_catalog(7);
  const web::Website* site = nullptr;
  for (const auto& candidate : catalog) {
    if (candidate.name == "apache.org") site = &candidate;
  }
  struct CountingSink final : trace::TraceSink {
    std::uint64_t events = 0;
    void on_event(const trace::Event&) override { ++events; }
  } sink;
  const auto result = core::run_trial(
      core::TrialSpec(*site, core::protocol_by_name("QUIC"), net::dsl_profile(), 1)
          .with_trace(&sink));
  benchmark::DoNotOptimize(result.metrics.plt_ms());
  return sink.events;
}

int run_json_mode(const std::string& path, int scale) {
  MicroResults results;
  measure_scheduler(results, scale);
  measure_rearm(results, scale);
  measure_trial(results, scale);
  measure_scheduled_trial(results, scale);
  measure_multiflow_trial(results, scale);
  measure_population(results, scale);
  results.events_per_trial = probe_events_per_trial();

  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::cerr << "bench_micro_perf: cannot write '" << path << "'\n";
    return 2;
  }
  out.precision(3);
  out << std::fixed;
  out << "{\n"
      << "  \"schema\": \"qperc-bench-micro-v6\",\n"
      << "  \"iters_scale\": " << scale << ",\n"
      << "  \"metrics\": {\n"
      << "    \"ns_per_schedule\": " << results.ns_per_schedule << ",\n"
      << "    \"ns_per_rearm\": " << results.ns_per_rearm << ",\n"
      << "    \"scheduler_events_per_sec\": " << results.scheduler_events_per_sec << ",\n"
      << "    \"scheduler_allocs_steady_state\": " << results.scheduler_allocs_steady_state
      << ",\n"
      << "    \"rearm_queue_depth_max\": " << results.rearm_queue_depth_max << ",\n"
      << "    \"ns_per_page_load_trial\": " << results.ns_per_page_load_trial << ",\n"
      << "    \"ns_per_scheduled_trial\": " << results.ns_per_scheduled_trial << ",\n"
      << "    \"ns_per_multiflow_trial\": " << results.ns_per_multiflow_trial << ",\n"
      << "    \"trials_per_sec\": " << results.trials_per_sec << ",\n"
      << "    \"allocations_per_trial\": " << results.allocations_per_trial << ",\n"
      << "    \"trace_events_per_trial\": " << results.events_per_trial << ",\n"
      << "    \"participants_per_sec\": " << results.participants_per_sec << ",\n"
      << "    \"bytes_per_participant\": " << results.bytes_per_participant << "\n"
      << "  }\n"
      << "}\n";
  out.flush();
  std::cerr << "bench_micro_perf: wrote " << path
            << " (ns/schedule " << results.ns_per_schedule << ", ns/re-arm "
            << results.ns_per_rearm << ", trials/sec " << results.trials_per_sec
            << ", allocs/trial " << results.allocations_per_trial
            << ", steady-state scheduler allocs " << results.scheduler_allocs_steady_state
            << ", participants/sec " << results.participants_per_sec
            << ", B/participant " << results.bytes_per_participant << ")\n";
  return 0;
}

}  // namespace
}  // namespace qperc

int main(int argc, char** argv) {
  std::string json_path;
  int scale = 100;
  // Strip --qperc_* flags before handing argv to google-benchmark.
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--qperc_json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg.rfind("--qperc_json=", 0) == 0) {
      json_path = arg.substr(std::strlen("--qperc_json="));
    } else if (arg == "--qperc_iters" && i + 1 < argc) {
      scale = std::atoi(argv[++i]);
    } else if (arg.rfind("--qperc_iters=", 0) == 0) {
      scale = std::atoi(arg.c_str() + std::strlen("--qperc_iters="));
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  if (!json_path.empty()) {
    return qperc::run_json_mode(json_path, scale < 1 ? 1 : scale);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
