// qperc — command-line frontend for the testbed and the user studies.
//
// Every command is one row of the command table near the bottom of this
// file; running `qperc` with no arguments prints the usage text generated
// from it.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/protocol.hpp"
#include "core/trial.hpp"
#include "core/trial_context.hpp"
#include "core/video.hpp"
#include "net/profile.hpp"
#include "population/checkpoint.hpp"
#include "population/population_study.hpp"
#include "runner/campaign.hpp"
#include "runner/campaign_runner.hpp"
#include "runner/fairness.hpp"
#include "runner/grid.hpp"
#include "runner/result_store.hpp"
#include "runner/torture.hpp"
#include "sim/simulator.hpp"
#include "stats/stats.hpp"
#include "stats/streaming.hpp"
#include "trace/counters.hpp"
#include "trace/jsonl_sink.hpp"
// The one TU of this binary holding the counting operator new/delete shim:
// `bench throughput` reports measured allocations/trial, not estimates.
#include "util/alloc_interpose.hpp"
#include "util/args.hpp"
#include "util/table.hpp"
#include "web/catalog_io.hpp"
#include "web/website.hpp"

namespace qperc::cli {
namespace {

// --- Shared argument readers ---------------------------------------------------

const net::NetworkProfile& network_by_name(const std::string& name) {
  for (const auto& profile : net::all_profiles()) {
    if (profile.name == name) return profile;
  }
  throw std::invalid_argument("unknown network '" + name + "' (DSL, LTE, DA2GC, MSS)");
}

/// --runs as a trial count: at least one (the u32 kind already rejects a
/// value that would wrap, 2^32 to zero).
std::uint32_t runs_arg(const Args& args, std::uint32_t fallback) {
  const std::uint32_t runs = args.u32("--runs", fallback);
  if (runs == 0) throw std::invalid_argument("--runs expects 1..4294967295, got 0");
  return runs;
}

/// --catalog FILE, else the study catalog generated from `seed`.
std::vector<web::Website> resolve_catalog(const Args& args, std::uint64_t seed) {
  if (args.has("--catalog")) return web::load_catalog(args.get("--catalog", ""));
  return web::study_catalog(seed);
}

SimDuration from_ms(double ms) { return from_seconds(ms / 1e3); }

/// The grid flags campaign and fairness share: --seed, --runs, the validated
/// --protocols/--networks lists and --shard. What the caller left in `spec`
/// is the default of each flag not given.
void grid_from_args(const Args& args, runner::GridAxes& spec) {
  spec.seed = args.u64("--seed", spec.seed);
  spec.runs = runs_arg(args, spec.runs);
  if (args.has("--protocols")) {
    spec.protocols.clear();
    for (const auto& name : args.list("--protocols", "")) {
      spec.protocols.push_back(core::protocol_by_name(name).name);  // validates
    }
  }
  if (args.has("--networks")) {
    spec.networks.clear();
    for (const auto& name : args.list("--networks", "")) {
      spec.networks.push_back(network_by_name(name).kind);
    }
  }
  args.shard(spec.shard_index, spec.shard_count);
}

/// The grid-wide variable-rate/policing overlay (--link-trace
/// [--link-trace-seed], --policer-rate-mbps [--policer-burst-kb]) of trial,
/// fairness and the population studies.
net::LinkConditions link_conditions_from_args(const Args& args) {
  net::LinkConditions conditions;
  if (args.has("--link-trace")) {
    // Synthetic Mahimahi-style variable-rate trace modulating the downlink
    // around its base rate. (Not `--trace`: that flag already names the
    // JSONL event-trace output path.)
    const std::string kind = args.get("--link-trace", "");
    if (kind == "lte") {
      conditions.link_trace = net::RateSchedule::Kind::kLteTrace;
    } else if (kind == "wifi") {
      conditions.link_trace = net::RateSchedule::Kind::kWifiTrace;
    } else {
      throw std::invalid_argument("--link-trace expects lte or wifi, got '" + kind + "'");
    }
    conditions.link_trace_seed = args.u64("--link-trace-seed", 1);
  } else if (args.has("--link-trace-seed")) {
    throw std::invalid_argument("--link-trace-seed needs --link-trace");
  }
  if (args.has("--policer-rate-mbps")) {
    conditions.policer_rate =
        DataRate::megabits_per_second(args.real("--policer-rate-mbps", 0.0));
    // Carrier policers are commonly provisioned with bursts in the tens of
    // kilobytes; 64 kB is the documented default, override with --policer-burst-kb.
    conditions.policer_burst_bytes = args.u64("--policer-burst-kb", 64) * 1024;
  } else if (args.has("--policer-burst-kb")) {
    throw std::invalid_argument("--policer-burst-kb needs --policer-rate-mbps");
  }
  return conditions;
}

/// File-name fragment for an enabled overlay ("" when none): caches and
/// checkpoints taken under different conditions land in different files
/// (their headers/fingerprints would refuse to mix regardless).
std::string link_conditions_file_tag(const net::LinkConditions& conditions) {
  if (!conditions.any()) return "";
  std::string tag;
  if (conditions.link_trace != net::RateSchedule::Kind::kNone) {
    tag += std::string("_") + net::to_string(conditions.link_trace) +
           std::to_string(conditions.link_trace_seed);
  }
  if (!conditions.policer_rate.is_zero()) {
    tag += "_pol" + std::to_string(conditions.policer_rate.bps()) + "b" +
           std::to_string(conditions.policer_burst_bytes);
  }
  return tag;
}

// --- Store files -----------------------------------------------------------------
//
// Every store is named "<identity prefix>[_shard<I>of<N>]<ext>" inside --out;
// status, export and report merge whatever files carry the prefix, so they
// see the merged progress of a multi-process fan-out under any shard split.

std::string shard_file_name(const std::string& prefix, unsigned shard_index,
                            unsigned shard_count, std::string_view ext) {
  std::string name = prefix;
  if (shard_count > 1) {
    name += "_shard" + std::to_string(shard_index) + "of" + std::to_string(shard_count);
  }
  return name + std::string(ext);
}

/// The regular files in `dir` that shard_file_name could have named for
/// `prefix` and `ext` — `<prefix><ext>` or `<prefix>_shard<I>of<N><ext>` —
/// sorted. A longer identity that merely starts with `prefix` (runs 21 for
/// runs 2, n1000 for n100) is not one of them.
std::vector<std::string> files_with_prefix(const std::string& dir, const std::string& prefix,
                                           std::string_view ext) {
  const auto is_number = [](std::string_view digits) {
    return !digits.empty() && digits.find_first_not_of("0123456789") == std::string_view::npos;
  };
  // What sits between the prefix and the extension: nothing or a shard tag.
  const auto is_shard_tag = [&](std::string_view tag) {
    if (tag.empty()) return true;
    if (!tag.starts_with("_shard")) return false;
    tag.remove_prefix(6);
    const std::size_t of = tag.find("of");
    return of != std::string_view::npos && is_number(tag.substr(0, of)) &&
           is_number(tag.substr(of + 2));
  };
  std::vector<std::string> files;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.size() >= prefix.size() + ext.size() && name.starts_with(prefix) &&
        name.ends_with(ext) &&
        is_shard_tag(std::string_view(name).substr(
            prefix.size(), name.size() - prefix.size() - ext.size()))) {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

/// --export FILE, if given: writes the canonical export through `write`,
/// failing loudly on any I/O error, and says where it went.
void export_if_asked(const Args& args, std::string_view done,
                     const std::function<void(std::ostream&)>& write) {
  if (!args.has("--export")) return;
  const std::string path = args.get("--export", "");
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write export file " + path);
  write(out);
  out.flush();
  if (!out) throw std::runtime_error("failed writing export file " + path);
  std::cerr << done << path << "\n";
}

// --- qperc catalog / protocols / networks / trial / video / study ------------------

/// Applies `trial`'s profile/impairment overrides and link overlay, then
/// validates so an out-of-range value (negative loss, zero bandwidth, ...)
/// fails here with an actionable message instead of misbehaving in the sim.
net::NetworkProfile apply_profile_overrides(net::NetworkProfile profile, const Args& args) {
  net::LinkImpairments& imp = profile.impairments;
  net::GilbertElliott& ge = imp.gilbert_elliott;
  profile.loss_rate = args.real("--loss", profile.loss_rate);
  imp.reorder_rate = args.real("--reorder-rate", imp.reorder_rate);
  imp.duplicate_rate = args.real("--dup-rate", imp.duplicate_rate);
  ge.enter_bad = args.real("--ge-enter", ge.enter_bad);
  ge.exit_bad = args.real("--ge-exit", ge.exit_bad);
  ge.loss_good = args.real("--ge-loss-good", ge.loss_good);
  ge.loss_bad = args.real("--ge-loss-bad", ge.loss_bad);
  const auto mbps = [&args](std::string_view flag, DataRate& rate) {
    if (args.has(flag)) rate = DataRate::megabits_per_second(args.real(flag, 0.0));
  };
  mbps("--uplink-mbps", profile.uplink);
  mbps("--downlink-mbps", profile.downlink);
  const auto millis = [&args](std::string_view flag, SimDuration& duration) {
    if (args.has(flag)) duration = from_ms(args.real(flag, 0.0));
  };
  millis("--rtt-ms", profile.min_rtt);
  millis("--queue-ms", profile.queue_delay);
  millis("--reorder-min-ms", imp.reorder_delay_min);
  millis("--reorder-max-ms", imp.reorder_delay_max);
  millis("--outage-ms", imp.outage_duration);
  millis("--outage-interval-ms", imp.outage_interval);
  if (args.has("--outage-start-ms")) {
    imp.outage_start = SimTime{from_ms(args.real("--outage-start-ms", 0.0))};
  }
  if (args.has("--rate-schedule")) {
    // "ms:mbps,ms:mbps,..." — step changes of the downlink serialization rate.
    const auto parts = args.list("--rate-schedule", "");
    if (parts.empty() || parts.size() > net::RateSchedule::kMaxSteps) {
      throw std::invalid_argument(
          "--rate-schedule expects 1.." + std::to_string(net::RateSchedule::kMaxSteps) +
          " comma-separated ms:mbps pairs");
    }
    std::array<net::RateStep, net::RateSchedule::kMaxSteps> steps{};
    for (std::size_t i = 0; i < parts.size(); ++i) {
      const std::string_view step = parts[i];
      const auto colon = step.find(':');
      if (colon == std::string_view::npos) {
        throw std::invalid_argument("--rate-schedule step '" + parts[i] + "' is not ms:mbps");
      }
      steps[i].at = from_ms(parse_number<double>(step.substr(0, colon), "--rate-schedule"));
      steps[i].rate = DataRate::megabits_per_second(
          parse_number<double>(step.substr(colon + 1), "--rate-schedule"));
    }
    profile.downlink_schedule = net::RateSchedule::steps(steps.data(), parts.size());
  }
  // After the scalar overrides, so a --link-trace derives from the overridden
  // downlink (and replaces any --rate-schedule); apply() validates the profile.
  link_conditions_from_args(args).apply(profile);
  return profile;
}

int cmd_catalog(const Args& args) {
  const auto catalog = resolve_catalog(args, args.u64("--seed", 7));
  if (args.has("--export")) {
    web::save_catalog(args.get("--export", ""), catalog);
    std::cout << "wrote " << args.get("--export", "") << " (" << catalog.size()
              << " sites)\n";
    return 0;
  }
  TextTable table({"Site", "objects", "kB", "origins"});
  for (const auto& site : catalog) {
    table.add_row({site.name, std::to_string(site.object_count()),
                   std::to_string(site.total_bytes() / 1024),
                   std::to_string(site.contacted_origins())});
  }
  table.print(std::cout);
  return 0;
}

int cmd_protocols(const Args& /*args*/) {
  TextTable table({"Protocol", "Transport", "CC", "IW", "Pacing", "Buffers", "RTTs"});
  const auto add = [&](const core::ProtocolConfig& protocol) {
    const char* transport = protocol.transport == core::Transport::kQuic ? "gQUIC"
                            : protocol.transport == core::Transport::kTcpH1
                                ? "TCP+TLS+H1"
                                : "TCP+TLS+H2";
    table.add_row({protocol.name, transport,
                   std::string(cc::to_string(protocol.congestion_control)),
                   std::to_string(protocol.initial_window_segments),
                   protocol.pacing ? "on" : "off",
                   protocol.tuned_buffers ? "2xBDP" : "autotune",
                   protocol.transport == core::Transport::kQuic
                       ? (protocol.zero_rtt ? "0" : "1")
                       : "2"});
  };
  for (const auto& protocol : core::paper_protocols()) add(protocol);
  add(core::http1_baseline_protocol());
  table.print(std::cout);
  return 0;
}

int cmd_networks(const Args& /*args*/) {
  TextTable table({"Network", "Up", "Down", "minRTT", "Loss", "Queue"});
  for (const auto& profile : net::all_profiles()) {
    table.add_row({profile.name, fmt_fixed(profile.uplink.megabits(), 3) + " Mbps",
                   fmt_fixed(profile.downlink.megabits(), 3) + " Mbps",
                   fmt_ms(to_millis(profile.min_rtt)), fmt_percent(profile.loss_rate),
                   fmt_ms(to_millis(profile.queue_delay))});
  }
  table.print(std::cout);
  return 0;
}

int cmd_trial(const Args& args) {
  const auto catalog = resolve_catalog(args, args.u64("--seed", 7));
  const web::Website& site = web::site_by_name(catalog, args.get("--site", "wikipedia.org"));
  const auto& protocol = core::protocol_by_name(args.get("--protocol", "QUIC"));
  const net::NetworkProfile profile =
      apply_profile_overrides(network_by_name(args.get("--network", "DSL")), args);

  // --trace: stream qlog-style events to a JSON Lines file while also
  // folding them into the trace-only counters printed after the trial.
  struct TracingSink final : trace::TraceSink {
    explicit TracingSink(std::ostream& os) : jsonl(os) {}
    void on_event(const trace::Event& event) override {
      jsonl.on_event(event);
      counters.observe(event);
    }
    trace::JsonlSink jsonl;
    trace::TrialCounters counters;
  };
  std::ofstream trace_file;
  std::unique_ptr<TracingSink> sink;
  const std::string trace_path = args.get("--trace", "");
  if (args.has("--trace")) {
    trace_file.open(trace_path);
    if (!trace_file) {
      std::cerr << "cannot open trace file '" << trace_path << "'\n";
      return 2;
    }
    sink = std::make_unique<TracingSink>(trace_file);
  }

  const auto result = core::run_trial(
      core::TrialSpec(site, protocol, profile, args.u64("--seed", 7))
          .with_trace(sink ? sink.get() : nullptr)
          .with_max_events(args.u64("--max-events", sim::Simulator::kDefaultEventCap)));

  if (sink) {
    trace_file.flush();
    const trace::TrialCounters& counters = sink->counters;
    std::cerr << "trace: wrote " << sink->jsonl.events_written() << " events to "
              << trace_path << "\n"
              << "trace: handshakes " << counters.handshakes_completed << "/"
              << counters.handshakes_started << " (first "
              << fmt_ms(to_millis(counters.first_handshake_duration)) << ")"
              << ", packets sent " << result.transport.data_packets_sent
              << ", retransmissions " << result.transport.retransmissions << ", timeouts "
              << result.transport.timeouts << ", spurious losses " << counters.spurious_losses
              << "\n"
              << "trace: queue drops " << counters.queue_drops << ", random-loss drops "
              << counters.random_loss_drops << ", max cwnd " << counters.max_cwnd_bytes
              << " B, max in-flight " << counters.max_bytes_in_flight << " B\n";
  }

  if (args.has("--csv")) {
    std::cout << "site,protocol,network,seed,fvc_ms,si_ms,vc85_ms,lvc_ms,plt_ms,"
                 "retransmissions,connections\n"
              << site.name << ',' << protocol.name << ',' << profile.name << ','
              << args.u64("--seed", 7) << ',' << result.metrics.fvc_ms() << ','
              << result.metrics.si_ms() << ',' << result.metrics.vc85_ms() << ','
              << result.metrics.lvc_ms() << ',' << result.metrics.plt_ms() << ','
              << result.transport.retransmissions << ',' << result.connections_opened
              << '\n';
    return 0;
  }
  TextTable table({"FVC", "SI", "VC85", "LVC", "PLT", "retx", "conns"});
  table.add_row({fmt_ms(result.metrics.fvc_ms()), fmt_ms(result.metrics.si_ms()),
                 fmt_ms(result.metrics.vc85_ms()), fmt_ms(result.metrics.lvc_ms()),
                 fmt_ms(result.metrics.plt_ms()),
                 std::to_string(result.transport.retransmissions),
                 std::to_string(result.connections_opened)});
  std::cout << site.name << " / " << protocol.name << " / " << profile.name << "\n";
  table.print(std::cout);
  if (!result.metrics.finished) {
    std::cout << "(load did not finish within the event/time budget; metrics are partial)\n";
  }
  return 0;
}

int cmd_video(const Args& args) {
  core::VideoLibrary library(args.u64("--seed", 7), runs_arg(args, 31));
  const auto& profile = network_by_name(args.get("--network", "DSL"));
  const auto& video = library.get(args.get("--site", "wikipedia.org"),
                                  args.get("--protocol", "QUIC"), profile.kind);
  std::cout << "typical recording of " << video.site << " / " << video.protocol << " / "
            << profile.name << " (" << video.runs << " trials)\n";
  TextTable table({"", "FVC", "SI", "VC85", "LVC", "PLT"});
  table.add_row({"selected video", fmt_ms(video.metrics.fvc_ms()),
                 fmt_ms(video.metrics.si_ms()), fmt_ms(video.metrics.vc85_ms()),
                 fmt_ms(video.metrics.lvc_ms()), fmt_ms(video.metrics.plt_ms())});
  table.add_row({"condition mean", fmt_ms(video.mean_metrics.fvc_ms()),
                 fmt_ms(video.mean_metrics.si_ms()), fmt_ms(video.mean_metrics.vc85_ms()),
                 fmt_ms(video.mean_metrics.lvc_ms()), fmt_ms(video.mean_metrics.plt_ms())});
  table.print(std::cout);
  std::cout << "mean retransmissions/trial: " << fmt_fixed(video.mean_retransmissions, 1)
            << ", VC curve points: " << video.vc_curve.size() << "\n";
  return 0;
}

study::StudyKind kind_arg(const Args& args) {
  const std::string kind = args.get("--kind", "rating");
  if (kind == "ab") return study::StudyKind::kAb;
  if (kind == "rating") return study::StudyKind::kRating;
  throw std::invalid_argument("--kind expects ab or rating, got '" + kind + "'");
}

study::Group group_arg(const Args& args) {
  const std::string group = args.get("--group", "uworker");
  if (group == "lab") return study::Group::kLab;
  if (group == "uworker") return study::Group::kMicroworker;
  if (group == "internet") return study::Group::kInternet;
  throw std::invalid_argument("--group expects lab, uworker or internet, got '" + group +
                              "'");
}

// --- qperc study run/report (population-scale streaming studies) ------------

population::StudySpec population_spec_from_args(const Args& args) {
  population::StudySpec spec;
  spec.kind = kind_arg(args);
  spec.group = group_arg(args);
  spec.participants = args.u64("--participants", 10000);
  spec.seed = args.u64("--seed", 7);
  spec.sites = args.u64("--sites", 36);
  spec.video_runs = runs_arg(args, 31);
  spec.videos_work = args.u64("--videos-work", 11);
  spec.videos_free_time = args.u64("--videos-free", 11);
  spec.videos_plane = args.u64("--videos-plane", 5);
  spec.videos_ab = args.u64("--videos-ab", 26);
  spec.conditions = link_conditions_from_args(args);
  spec.validate();
  return spec;
}

/// Identity prefix of a streaming study's checkpoints: the identity-bearing
/// fields keep different studies in one --out directory from colliding.
std::string population_prefix(const population::StudySpec& spec) {
  return "population_seed" + std::to_string(spec.seed) + "_" +
         std::string(population::kind_token(spec.kind)) + "_" +
         std::string(study::to_string(spec.group)) + "_n" +
         std::to_string(spec.participants) + link_conditions_file_tag(spec.conditions);
}

/// Human-readable summary: funnel, per-cell means with CI99, and — the
/// scaling payoff — the QUIC-vs-TCP effect with the minimum detectable
/// rating gap at the paper's lab size and at crowd/population scale.
void print_population_summary(const population::StudySpec& spec,
                              const population::Accumulator& acc) {
  std::cout << (spec.kind == study::StudyKind::kAb ? "A/B" : "Rating")
            << " study (streaming), " << study::to_string(spec.group) << ": "
            << acc.participants << " -> " << acc.survivors
            << " participants after filtering, " << acc.votes << " votes\n\n";

  if (spec.kind == study::StudyKind::kRating) {
    TextTable table({"Protocol", "Network", "Context", "mean vote ± CI99", "n"});
    for (const auto& cell : acc.rating_cells) {
      const auto ci = stats::mean_confidence_interval(cell.votes, 0.99);
      table.add_row({cell.protocol, std::string(net::to_string(cell.network)),
                     std::string(study::to_string(cell.context)),
                     fmt_fixed(ci.center, 2) + " ± " + fmt_fixed(ci.half_width, 2),
                     std::to_string(cell.votes.count())});
    }
    table.print(std::cout);

    std::cout << "\nQUIC vs TCP rating effect (Welch t; MDE at alpha=0.05, power=0.8)\n";
    TextTable effects({"Context", "Network", "diff", "p", "MDE n=35", "MDE n=10k",
                       "MDE n=10M"});
    for (const auto& quic : acc.rating_cells) {
      if (quic.protocol != "QUIC") continue;
      for (const auto& tcp : acc.rating_cells) {
        if (tcp.protocol != "TCP" || tcp.network != quic.network ||
            tcp.context != quic.context) {
          continue;
        }
        const auto test = stats::welch_t_test(quic.votes, tcp.votes);
        const auto mde = [&](std::uint64_t n) {
          return fmt_fixed(
              stats::min_detectable_effect(quic.votes.sample_variance(), n,
                                           tcp.votes.sample_variance(), n, 0.05, 0.8),
              3);
        };
        effects.add_row({std::string(study::to_string(quic.context)),
                         std::string(net::to_string(quic.network)),
                         fmt_fixed(test.difference, 3), fmt_fixed(test.p_value, 4),
                         mde(35), mde(10000), mde(10000000)});
      }
    }
    effects.print(std::cout);
    return;
  }

  for (std::size_t p = 0; p < study::ab_pairs().size(); ++p) {
    const auto& [a, b] = study::ab_pairs()[p];
    TextTable table({"Network", "prefer " + a, "No Diff.", "prefer " + b, "n"});
    for (const auto& cell : acc.ab_cells) {
      if (cell.pair_index != p || cell.total() == 0) continue;
      const auto total = static_cast<double>(cell.total());
      table.add_row({std::string(net::to_string(cell.network)),
                     fmt_percent(static_cast<double>(cell.prefer_first) / total),
                     fmt_percent(static_cast<double>(cell.no_difference) / total),
                     fmt_percent(static_cast<double>(cell.prefer_second) / total),
                     std::to_string(cell.total())});
    }
    std::cout << a << " vs " << b << "\n";
    table.print(std::cout);
    std::cout << "\n";
  }
}

/// `study run`/`study report`'s default --out, where `qperc study` keeps its
/// stimuli too.
constexpr std::string_view kStudyOut = "out/study";

core::VideoLibrary study_stimuli(const population::StudySpec& spec,
                                 const std::string& out_dir, unsigned jobs);

/// `qperc study`: one paper-size cohort (Table 3's initial count for the
/// group and kind) run in memory on the streaming engine.
int cmd_study(const Args& args) {
  population::StudySpec spec;
  spec.kind = kind_arg(args);
  spec.group = group_arg(args);
  spec.participants = study::paper_initial_cohort(spec.group, spec.kind);
  spec.seed = args.u64("--seed", 7);
  spec.sites = args.u64("--sites", 36);
  spec.video_runs = runs_arg(args, 31);
  auto library = study_stimuli(spec, std::string(kStudyOut), 0);
  print_population_summary(spec, population::run_streaming_study(library, spec).accumulator);
  return 0;
}

int cmd_study_run(const Args& args) {
  const auto spec = population_spec_from_args(args);

  population::RunOptions options;
  options.jobs = args.u32("--jobs", 0);
  options.block_size = args.u64("--block-size", 8192);
  options.max_blocks = args.u64("--max-blocks", 0);
  options.checkpoint_every_blocks = args.u64("--checkpoint-every", 64);
  options.resume = args.has("--resume");
  args.shard(options.shard_index, options.shard_count);
  const std::string out_dir = args.get("--out", kStudyOut);
  std::filesystem::create_directories(out_dir);
  options.checkpoint_path = out_dir + "/" +
                            shard_file_name(population_prefix(spec), options.shard_index,
                                            options.shard_count, ".qps");

  if (!args.has("--quiet")) {
    options.on_progress = [](const population::Progress& progress) {
      std::cerr << "\rstudy: " << progress.participants_done << "/"
                << progress.participants_total << " participants ("
                << progress.resumed_participants << " resumed), "
                << fmt_fixed(progress.participants_per_second, 0) << "/s, ETA "
                << fmt_fixed(progress.eta_seconds, 0) << " s   " << std::flush;
    };
  }

  auto library = study_stimuli(spec, out_dir, options.jobs);
  const auto report = population::run_streaming_study(library, spec, options);
  if (options.on_progress) std::cerr << "\n";

  std::cerr << "study: " << report.blocks_done << "/" << report.owned_blocks
            << " blocks (" << report.resumed_blocks << " resumed), "
            << report.accumulator.participants << " participants, "
            << report.accumulator.votes << " votes in "
            << fmt_fixed(report.elapsed_seconds, 1) << " s\n";
  std::cerr << "study: checkpoint in " << options.checkpoint_path << "\n";
  if (!report.complete()) {
    std::cerr << "study: shard incomplete — continue with --resume\n";
    return 0;
  }
  export_if_asked(args, "study: report exported to ", [&](std::ostream& out) {
    population::write_report(out, spec, report.accumulator);
  });
  if (options.shard_count == 1) {
    print_population_summary(spec, report.accumulator);
  } else {
    std::cerr << "study: shard " << options.shard_index << "/" << options.shard_count
              << " done — merge with `qperc study report`\n";
  }
  return 0;
}

int cmd_study_report(const Args& args) {
  const auto spec = population_spec_from_args(args);
  const std::string out_dir = args.get("--out", kStudyOut);
  const auto layout = population::make_accumulator(spec.kind);

  // Candidate shard files share the identity prefix (any shard geometry).
  const std::string prefix = population_prefix(spec);
  const std::vector<std::string> files = files_with_prefix(out_dir, prefix, ".qps");
  if (files.empty()) {
    std::cerr << "study: no checkpoints matching " << out_dir << "/" << prefix
              << "*.qps — run `qperc study run` first\n";
    return 1;
  }

  auto merged = population::make_accumulator(spec.kind);
  std::vector<bool> shard_seen;
  unsigned shard_count = 0;
  bool all_complete = true;
  for (const auto& file : files) {
    const auto shard = population::read_shard(file, layout);
    if (!shard || shard->fingerprint != spec.fingerprint()) {
      std::cerr << "study: skipping unreadable or mismatched checkpoint " << file << "\n";
      continue;
    }
    if (shard_count == 0) {
      shard_count = shard->shard_count;
      shard_seen.assign(shard_count, false);
    }
    if (shard->shard_count != shard_count) {
      std::cerr << "study: " << file << " uses a different shard split ("
                << shard->shard_count << " vs " << shard_count << ") — refusing to mix\n";
      return 1;
    }
    shard_seen[shard->shard_index] = true;
    const std::uint64_t owned = population::owned_blocks(
        spec.participants, shard->block_size, shard->shard_index, shard->shard_count);
    if (shard->blocks_done < owned) {
      std::cerr << "study: shard " << shard->shard_index << "/" << shard_count
                << " incomplete (" << shard->blocks_done << "/" << owned
                << " blocks) in " << file << "\n";
      all_complete = false;
    }
    merged.merge(shard->accumulator);
  }
  if (shard_count == 0) {
    std::cerr << "study: no usable checkpoints for this spec in " << out_dir << "\n";
    return 1;
  }
  for (unsigned i = 0; i < shard_count; ++i) {
    if (!shard_seen[i]) {
      std::cerr << "study: shard " << i << "/" << shard_count << " missing from "
                << out_dir << "\n";
      all_complete = false;
    }
  }
  if (!all_complete) {
    std::cerr << "study: incomplete — finish the missing shards before reporting\n";
    return 1;
  }

  export_if_asked(args, "study: report exported to ", [&](std::ostream& out) {
    population::write_report(out, spec, merged);
  });
  print_population_summary(spec, merged);
  return 0;
}

// --- Grid commands: qperc campaign and qperc fairness ----------------------------

/// How a grid command names itself, its cells, its store files and its
/// interruption flag on the command line.
struct GridCommand {
  std::string_view name;      // message prefix and store file stem
  std::string_view units;     // what one cell is called
  std::string_view ext;       // store file extension
  std::string_view max_flag;  // stop after this many cells
  /// The progress line and summary show the run rate and transport ledger.
  bool transport;
};

constexpr GridCommand kCampaign{"campaign", "conditions", ".qcr", "--max-tasks", true};
constexpr GridCommand kFairness{"fairness", "cells", ".qfr", "--max-cells", false};

/// "campaign_seed7_runs31": the identity prefix of a grid's store files.
std::string grid_prefix(const GridCommand& grid, const runner::GridAxes& spec) {
  return std::string(grid.name) + "_seed" + std::to_string(spec.seed) + "_runs" +
         std::to_string(spec.runs);
}

/// The store file of the spec's shard inside --out.
std::string grid_store_path(const GridCommand& grid, const runner::GridAxes& spec,
                            const std::string& out_dir) {
  return out_dir + "/" +
         shard_file_name(grid_prefix(grid, spec), spec.shard_index, spec.shard_count,
                         grid.ext);
}

/// Every checkpoint file of the spec's (seed, runs) identity in --out, any
/// shard split.
std::vector<std::string> grid_files(const GridCommand& grid, const runner::GridAxes& spec,
                                    const std::string& out_dir) {
  return files_with_prefix(out_dir, grid_prefix(grid, spec), grid.ext);
}

/// Merges `files` into `merged` (records merged first win), naming each file
/// that does not load under the store's identity. Returns how many merged.
template <class Store>
std::size_t merge_checkpoints(const GridCommand& grid, const std::vector<std::string>& files,
                              Store& merged) {
  std::size_t read = 0;
  for (const auto& file : files) {
    if (merged.absorb(file)) {
      ++read;
    } else {
      std::cerr << grid.name << ": skipping unreadable or mismatched checkpoint " << file
                << "\n";
    }
  }
  return read;
}

std::string describe(const runner::CampaignTask& task) {
  return task.site + "/" + task.protocol + "/" + std::string(net::to_string(task.network));
}

std::string describe(const runner::FairnessTask& task) {
  return task.site + "/" + task.protocol + "/" + std::string(net::to_string(task.network)) +
         "/" + std::to_string(task.flows) + "x" + std::string(net::to_string(task.mix));
}

/// Runs the spec's shard into `store` through `run` (run_campaign or
/// run_fairness): --resume, --jobs, --retries and the command's
/// interruption flag, the progress line, and the end-of-run summary on
/// stderr. Returns whether every cell succeeded.
template <class Spec, class Store, class Run>
bool run_grid_command(const Args& args, const GridCommand& grid, const Spec& spec,
                      Store& store, const Run& run) {
  if (args.has("--resume")) {
    if (store.load()) {
      std::cerr << grid.name << ": resuming — " << store.size() << " " << grid.units
                << " already checkpointed in " << store.path() << "\n";
    } else {
      std::cerr << grid.name << ": no usable checkpoint at " << store.path()
                << ", starting fresh\n";
    }
  }
  runner::GridOptions options;
  options.jobs = args.u32("--jobs", 0);
  options.max_attempts = args.u32("--retries", 1) + 1;
  options.max_tasks = args.u64(grid.max_flag, 0);
  if (!args.has("--quiet")) {
    options.on_progress = [&grid](const runner::GridProgress& progress) {
      std::cerr << "\r" << grid.name << ": " << progress.completed << "/" << progress.pending
                << " " << grid.units << " (" << progress.skipped << " resumed), ";
      if (grid.transport) std::cerr << fmt_fixed(progress.tasks_per_second, 2) << "/s, ";
      std::cerr << "ETA " << fmt_fixed(progress.eta_seconds, 0) << " s";
      if (grid.transport) {
        std::cerr << ", packets " << progress.transport.data_packets_sent << ", retx "
                  << progress.transport.retransmissions;
      }
      std::cerr << "   " << std::flush;
    };
  }

  const auto report = run(spec, store, options);
  if (options.on_progress) std::cerr << "\n";

  std::cerr << grid.name << ": " << report.total << " " << grid.units << " in shard (grid "
            << spec.grid_size() << "), " << report.skipped << " resumed, "
            << report.executed << " executed, " << report.failures.size() << " failed in "
            << fmt_fixed(report.elapsed_seconds, 1) << " s\n";
  if (grid.transport) {
    const net::TransportStats& totals = report.transport;
    std::cerr << grid.name << ": totals — packets sent " << totals.data_packets_sent
              << ", retransmissions " << totals.retransmissions << ", timeouts "
              << totals.timeouts << ", handshake packets " << totals.handshake_packets
              << ", congestion events " << totals.congestion_events << "\n";
  }
  for (const auto& failure : report.failures) {
    std::cerr << grid.name << ": FAILED " << describe(failure.task) << " after "
              << failure.attempts << " attempt(s): " << failure.message << "\n";
  }
  std::cerr << grid.name << ": results in " << store.path() << "\n";
  return report.failures.empty();
}

/// Builds the grid spec shared by campaign run/status/export: the default
/// is the full paper grid (all sites x 5 protocols x 4 networks), the grid
/// the studies draw their stimuli from.
runner::CampaignSpec spec_from_args(const Args& args) {
  auto spec = runner::stimulus_spec(args.u64("--seed", 7), runs_arg(args, 31),
                                    args.u64("--sites", 36));
  grid_from_args(args, spec);
  spec.validate();
  return spec;
}

/// The stored results of the spec's grid (sites x protocols x networks) in
/// key order, merged across `files`; a store may hold a wider grid.
std::vector<core::Video> campaign_results(const std::vector<std::string>& files,
                                          const runner::CampaignSpec& spec,
                                          const std::string& out_dir) {
  runner::ResultStore merged(grid_store_path(kCampaign, spec, out_dir), spec.seed, spec.runs);
  merge_checkpoints(kCampaign, files, merged);
  std::vector<core::Video> videos;
  merged.for_each([&](const core::Video& video) {
    if (std::ranges::find(spec.sites, video.site) != spec.sites.end() &&
        std::ranges::find(spec.protocols, video.protocol) != spec.protocols.end() &&
        std::ranges::find(spec.networks, video.network) != spec.networks.end()) {
      videos.push_back(video);
    }
  });
  return videos;
}

int cmd_campaign_run(const Args& args) {
  const auto spec = spec_from_args(args);
  const std::string out_dir = args.get("--out", "out/campaign");
  std::filesystem::create_directories(out_dir);
  runner::ResultStore store(grid_store_path(kCampaign, spec, out_dir), spec.seed, spec.runs,
                            args.u64("--checkpoint-every", 25));
  return run_grid_command(args, kCampaign, spec, store, runner::run_campaign) ? 0 : 1;
}

/// The study's stimuli, from the campaign store in `out_dir` that `campaign
/// run --out` writes (campaign_seed<S>_runs<R><link tag>.qcr): the conditions
/// the store lacks run into it first as a campaign, checkpointed, so
/// stimulus production is paid once per (seed, runs, link conditions) and a
/// killed run keeps every finished condition.
core::VideoLibrary study_stimuli(const population::StudySpec& spec,
                                 const std::string& out_dir, unsigned jobs) {
  const auto grid =
      runner::stimulus_spec(spec.seed, spec.video_runs, spec.sites, spec.conditions);
  std::filesystem::create_directories(out_dir);
  runner::ResultStore store(out_dir + "/" + grid_prefix(kCampaign, grid) +
                                link_conditions_file_tag(grid.conditions) +
                                std::string(kCampaign.ext),
                            grid.seed, grid.runs, 25, grid.conditions);
  static_cast<void>(store.load());
  const auto tasks = grid.tasks();
  std::size_t executed = 0;
  // A complete store is only read: sibling study shards may share it.
  if (!std::ranges::all_of(tasks, [&](const auto& task) { return store.contains(task.key()); })) {
    runner::GridOptions options;
    options.jobs = jobs;
    const auto report = runner::run_campaign(grid, store, options);
    if (!report.failures.empty()) std::rethrow_exception(report.failures.front().error);
    executed = report.executed;
  }
  std::cerr << "study: stimuli — " << tasks.size() - executed << " of " << tasks.size()
            << " conditions reused, " << executed << " executed, in " << store.path() << "\n";
  core::VideoLibrary library(spec.seed, spec.video_runs, spec.conditions);
  runner::adopt_results(store, library);
  return library;
}

int cmd_campaign_status(const Args& args) {
  const auto spec = spec_from_args(args);
  const std::string out_dir = args.get("--out", "out/campaign");
  const auto files = grid_files(kCampaign, spec, out_dir);
  const auto videos = campaign_results(files, spec, out_dir);

  std::cout << "campaign store: " << out_dir << " (" << files.size()
            << " checkpoint file(s), seed " << spec.seed << ", runs " << spec.runs
            << ")\n";
  std::cout << "completed: " << videos.size() << " / " << spec.grid_size()
            << " conditions\n";

  TextTable table({"Network", "completed", "of"});
  for (const auto kind : spec.networks) {
    const auto done = std::ranges::count_if(
        videos, [kind](const core::Video& video) { return video.network == kind; });
    table.add_row({std::string(net::to_string(kind)), std::to_string(done),
                   std::to_string(spec.sites.size() * spec.protocols.size())});
  }
  table.print(std::cout);
  return 0;
}

int cmd_campaign_export(const Args& args) {
  const auto spec = spec_from_args(args);
  const std::string out_dir = args.get("--out", "out/campaign");
  const auto videos = campaign_results(grid_files(kCampaign, spec, out_dir), spec, out_dir);

  std::cout << "site,protocol,network,runs,fvc_ms,si_ms,vc85_ms,lvc_ms,plt_ms,"
               "mean_fvc_ms,mean_si_ms,mean_vc85_ms,mean_lvc_ms,mean_plt_ms,"
               "mean_retransmissions,vc_points\n";
  std::cout.precision(17);
  for (const auto& video : videos) {
    std::cout << video.site << ',' << video.protocol << ','
              << net::to_string(video.network) << ',' << video.runs << ','
              << video.metrics.fvc_ms() << ',' << video.metrics.si_ms() << ','
              << video.metrics.vc85_ms() << ',' << video.metrics.lvc_ms() << ','
              << video.metrics.plt_ms() << ',' << video.mean_metrics.fvc_ms() << ','
              << video.mean_metrics.si_ms() << ',' << video.mean_metrics.vc85_ms() << ','
              << video.mean_metrics.lvc_ms() << ',' << video.mean_metrics.plt_ms() << ','
              << video.mean_retransmissions << ',' << video.vc_curve.size() << '\n';
  }
  return 0;
}

/// Builds the fairness grid spec shared by run/report/export. The default is
/// one cell: the first catalog site, QUIC over DSL, 16 cubic cross flows,
/// 5 runs.
runner::FairnessSpec fairness_spec_from_args(const Args& args) {
  runner::FairnessSpec spec;
  spec.runs = 5;
  spec.protocols.emplace_back("QUIC");
  spec.networks.push_back(net::NetworkKind::kDsl);
  grid_from_args(args, spec);
  const auto catalog = web::study_catalog(spec.seed);
  for (const auto& name : args.list("--sites", catalog.front().name)) {
    spec.sites.push_back(web::site_by_name(catalog, name).name);
  }
  for (const auto& text : args.list("--flows", "16")) {
    spec.flow_counts.push_back(parse_number<std::uint32_t>(text, "--flows"));
  }
  for (const auto& text : args.list("--mix", "cubic")) {
    spec.mixes.push_back(net::parse_cross_mix(text));
  }
  for (const auto& text : args.list("--stagger-ms", "0")) {
    spec.staggers.push_back(from_ms(parse_number<double>(text, "--stagger-ms")));
  }
  spec.burst_bytes = args.u64("--burst-kb", 0) * 1024;
  spec.off_time = from_ms(args.real("--off-ms", 0.0));
  spec.conditions = link_conditions_from_args(args);
  spec.validate();
  return spec;
}

/// --export: the cells as canonical record lines (key-sorted, fixed field
/// order, max_digits10 doubles) — byte-identical for identical grids
/// regardless of --jobs, shard split, or resume history.
void export_fairness(const Args& args, const runner::FairnessStore& store) {
  export_if_asked(args, "fairness: exported to ", [&store](std::ostream& out) {
    store.for_each(
        [&out](const runner::FairnessCell& cell) { runner::FairnessCodec::write(out, cell); });
  });
}

void print_fairness_summary(const runner::FairnessStore& store) {
  TextTable table({"Site", "Protocol", "Network", "flows", "mix", "stagger", "Jain",
                   "queue peak", "drops", "PLT", "SI", "page retx"});
  store.for_each([&table](const runner::FairnessCell& cell) {
    table.add_row({cell.site, cell.protocol, std::string(net::to_string(cell.network)),
                   std::to_string(cell.flows), std::string(net::to_string(cell.mix)),
                   fmt_ms(to_millis(cell.stagger)), fmt_fixed(cell.jain_index, 3),
                   fmt_percent(cell.mean_queue_peak_frac),
                   fmt_fixed(cell.mean_queue_drops, 1), fmt_ms(cell.mean_plt_ms),
                   fmt_ms(cell.mean_si_ms), fmt_fixed(cell.mean_page_retransmissions, 1)});
  });
  table.print(std::cout);

  // Per-flow goodput detail when the grid is one contended cell.
  if (store.size() == 1) {
    store.for_each([](const runner::FairnessCell& cell) {
      if (cell.flows == 0) return;
      std::cout << "\nper-flow goodput (" << cell.flows << " cross flows, mean of "
                << cell.runs << " runs)\n";
      TextTable flows({"flow", "goodput"});
      for (std::size_t i = 0; i < cell.flow_goodput_bps.size(); ++i) {
        flows.add_row({std::to_string(i),
                       fmt_fixed(cell.flow_goodput_bps[i] / 1e6, 3) + " Mbps"});
      }
      flows.print(std::cout);
    });
  }
}

int cmd_fairness(const Args& args) {
  const auto spec = fairness_spec_from_args(args);
  const std::string out_dir = args.get("--out", "out/fairness");
  std::filesystem::create_directories(out_dir);

  // --report: merge every compatible checkpoint in --out and print/export
  // without running anything (the multi-shard rendezvous).
  if (args.has("--report")) {
    for (const char* flag : {"--shard", "--jobs", "--resume", "--checkpoint-every",
                             "--retries", "--max-cells"}) {
      if (args.has(flag)) {
        throw std::invalid_argument(std::string(flag) + " only applies to running cells; " +
                                    "--report merges and prints them");
      }
    }
    runner::FairnessStore merged(grid_store_path(kFairness, spec, out_dir), spec.seed,
                                 spec.runs, spec.fingerprint());
    const std::size_t absorbed =
        merge_checkpoints(kFairness, grid_files(kFairness, spec, out_dir), merged);
    if (absorbed == 0) {
      std::cerr << "fairness: no usable checkpoints in " << out_dir
                << " — run `qperc fairness` first\n";
      return 1;
    }
    std::cerr << "fairness: merged " << merged.size() << "/" << spec.grid_size()
              << " cells from " << absorbed << " checkpoint(s)\n";
    export_fairness(args, merged);
    print_fairness_summary(merged);
    return merged.size() == spec.grid_size() ? 0 : 1;
  }

  runner::FairnessStore store(grid_store_path(kFairness, spec, out_dir), spec.seed, spec.runs,
                              spec.fingerprint(), args.u64("--checkpoint-every", 8));
  if (!run_grid_command(args, kFairness, spec, store, runner::run_fairness)) return 1;
  if (spec.shard_count > 1) {
    std::cerr << "fairness: shard " << spec.shard_index << "/" << spec.shard_count
              << " done — merge with `qperc fairness --report`\n";
    return 0;
  }
  export_fairness(args, store);
  if (store.size() == spec.grid_size()) print_fairness_summary(store);
  return 0;
}

int cmd_torture(const Args& args) {
  runner::TortureOptions options;
  options.seed = args.u64("--seed", 1);
  options.grid = runner::parse_torture_grid(args.get("--grid", "small"));
  options.max_events_per_trial = args.u64("--max-events", options.max_events_per_trial);
  const auto report =
      runner::run_torture(options, args.has("--quiet") ? nullptr : &std::cerr);
  std::cout << "torture: " << report.trials << " trials, " << report.check_violations
            << " CHECK violations, " << report.hung_trials << " hung ("
            << report.deadlocks << " deadlocked), " << report.conservation_failures
            << " conservation failures, " << report.exceptions << " exceptions, "
            << report.incomplete_pages << " incomplete pages (time cap, legal)\n";
  for (const auto& failure : report.failures) std::cout << "  " << failure << "\n";
  std::cout << (report.ok() ? "torture: OK\n" : "torture: FAILED\n");
  return report.ok() ? 0 : 1;
}

/// Steady-state page-load throughput: runs one (site, protocol, network)
/// condition back to back through a reused TrialContext and reports
/// trials/sec, microseconds/trial, and heap allocations/trial — the same
/// numbers BENCH_micro.json ratchets, but on any condition and without
/// google-benchmark (see docs/PERFORMANCE.md "Measuring throughput").
int cmd_bench_throughput(const Args& args) {
  // The page stays the default catalog's (or --catalog's) whatever --seed
  // says: --seed sets only the first trial seed.
  const auto catalog = resolve_catalog(args, 7);
  const web::Website& site = web::site_by_name(catalog, args.get("--site", "apache.org"));
  const auto& protocol = core::protocol_by_name(args.get("--protocol", "QUIC"));
  const net::NetworkProfile& profile = network_by_name(args.get("--network", "DSL"));
  const std::uint64_t trials = args.u64("--trials", 2000);
  const std::uint64_t warmup = args.u64("--warmup", 3);
  if (trials == 0) {
    std::cerr << "--trials must be at least 1\n";
    return 2;
  }
  std::uint64_t seed = args.u64("--seed", 1);

  core::TrialContext context;
  // Warm-up trials grow the arena blocks and container capacities to their
  // high-water marks so the timed region measures the steady state.
  for (std::uint64_t i = 0; i < warmup; ++i) {
    static_cast<void>(context.run(core::TrialSpec(site, protocol, profile, seed++)));
  }

  const std::uint64_t allocs_before = heap_allocations();
  double plt_sum_ms = 0.0;
  std::uint64_t events = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < trials; ++i) {
    const auto result = context.run(core::TrialSpec(site, protocol, profile, seed++));
    plt_sum_ms += result.metrics.plt_ms();
    events += context.simulator().events_processed();
  }
  const auto t1 = std::chrono::steady_clock::now();
  const double total_ns = std::chrono::duration<double, std::nano>(t1 - t0).count();
  const double dt = static_cast<double>(trials);
  const std::uint64_t allocs = heap_allocations() - allocs_before;

  std::cout << "bench throughput: " << site.name << " / " << protocol.name << " / "
            << profile.name << " (" << trials << " trials, " << warmup << " warm-up)\n";
  TextTable table({"trials/sec", "us/trial", "allocs/trial", "events/trial", "mean PLT"});
  table.add_row({fmt_fixed(dt / (total_ns * 1e-9), 1), fmt_fixed(total_ns / dt / 1e3, 1),
                 fmt_fixed(static_cast<double>(allocs) / dt, 2),
                 fmt_fixed(static_cast<double>(events) / dt, 1),
                 fmt_ms(plt_sum_ms / dt)});
  table.print(std::cout);
  std::cout << "arena bytes reserved: " << context.arena_bytes_reserved() << "\n";
  return 0;
}

// --- The command table --------------------------------------------------------

struct Command {
  std::string_view path;  // "campaign run"
  int (*run)(const Args&);
  Flags flags;
};

/// Every qperc command with its flags. Each flag is declared once, here;
/// commands share flags through the groups. `--sites` names two flags: a
/// site count for campaign and study, a list of sites for fairness.
const std::vector<Command>& commands() {
  using enum FlagKind;
  static const Flags seed = {{"--seed", "K", kU64}};
  static const Flags runs = {{"--runs", "R", kU32}};
  static const Flags site_count = {{"--sites", "N", kU64}};
  static const Flags condition = {
      {"--site", "S", kValue}, {"--protocol", "P", kValue}, {"--network", "N", kValue}};
  static const Flags catalog = {{"--catalog", "FILE", kValue}};
  static const Flags export_file = {{"--export", "FILE", kValue}};
  static const Flags max_events = {{"--max-events", "N", kU64}};
  static const Flags quiet = {{"--quiet", "", kBool}};
  static const Flags out = {{"--out", "DIR", kValue}};
  static const Flags retries = {{"--retries", "N", kU32}};
  // Grid: the axes campaign and fairness share.
  static const Flags grid =
      seed + runs + Flags{{"--protocols", "A,B", kList}, {"--networks", "A,B", kList}};
  // Store: how a resumable, shardable grid or study executes.
  static const Flags store = quiet + Flags{{"--jobs", "J", kU32}, {"--shard", "I/N", kShard},
                                           {"--resume", "", kBool},
                                           {"--checkpoint-every", "N", kU64}};
  static const Flags link_overlay = {
      {"--link-trace", "lte|wifi", kValue}, {"--link-trace-seed", "K", kU64},
      {"--policer-rate-mbps", "M", kDouble}, {"--policer-burst-kb", "N", kU64}};
  static const Flags study_kind = {{"--kind", "ab|rating", kValue},
                                   {"--group", "lab|uworker|internet", kValue}};
  // Study: the identity of a streaming study, shared by run and report.
  static const Flags study =
      study_kind + seed + site_count + runs + link_overlay + out + export_file +
      Flags{{"--participants", "N", kU64}, {"--videos-work", "N", kU64},
            {"--videos-free", "N", kU64}, {"--videos-plane", "N", kU64},
            {"--videos-ab", "N", kU64}};
  static const Flags profile = {
      {"--loss", "P", kDouble}, {"--uplink-mbps", "M", kDouble},
      {"--downlink-mbps", "M", kDouble}, {"--rtt-ms", "T", kDouble},
      {"--queue-ms", "T", kDouble}, {"--reorder-rate", "P", kDouble},
      {"--reorder-min-ms", "T", kDouble}, {"--reorder-max-ms", "T", kDouble},
      {"--dup-rate", "P", kDouble}, {"--ge-enter", "P", kDouble},
      {"--ge-exit", "P", kDouble}, {"--ge-loss-good", "P", kDouble},
      {"--ge-loss-bad", "P", kDouble}, {"--outage-start-ms", "T", kDouble},
      {"--outage-ms", "T", kDouble}, {"--outage-interval-ms", "T", kDouble},
      {"--rate-schedule", "ms:mbps,...", kList}};
  static const std::vector<Command> table = {
      {"catalog", cmd_catalog, export_file + catalog + seed},
      {"protocols", cmd_protocols, {}},
      {"networks", cmd_networks, {}},
      {"trial", cmd_trial,
       condition + seed + catalog + max_events + profile + link_overlay +
           Flags{{"--csv", "", kBool}, {"--trace", "FILE", kValue}}},
      {"torture", cmd_torture,
       seed + max_events + quiet + Flags{{"--grid", "small|full", kValue}}},
      {"video", cmd_video, condition + runs + seed},
      {"study", cmd_study, study_kind + runs + site_count + seed},
      {"study run", cmd_study_run,
       study + store + Flags{{"--block-size", "B", kU64}, {"--max-blocks", "N", kU64}}},
      {"study report", cmd_study_report, study},
      {"campaign run", cmd_campaign_run,
       grid + site_count + out + store + retries + Flags{{"--max-tasks", "N", kU64}}},
      {"campaign status", cmd_campaign_status, grid + site_count + out},
      {"campaign export", cmd_campaign_export, grid + site_count + out},
      {"fairness", cmd_fairness,
       grid + link_overlay + out + export_file + store + retries +
           Flags{{"--sites", "A,B", kList}, {"--flows", "N,M", kList},
                 {"--mix", "cubic|reno|bbr|quic|mixed,..", kList},
                 {"--stagger-ms", "T,U", kList},
                 {"--burst-kb", "N", kU64}, {"--off-ms", "T", kDouble},
                 {"--max-cells", "N", kU64}, {"--report", "", kBool}}},
      {"bench throughput", cmd_bench_throughput,
       condition + seed + catalog + Flags{{"--trials", "N", kU64}, {"--warmup", "N", kU64}}},
  };
  return table;
}

/// The usage text, generated from the command table.
int usage() {
  std::cerr << "usage: qperc <command> [flags]\n";
  for (const Command& command : commands()) {
    std::string line = "  " + std::string(command.path);
    const std::size_t indent = line.size();
    for (const Flag& flag : command.flags) {
      // Appended piece by piece: GCC 12's -O3 raises a false -Wrestrict on
      // `literal + std::string` here (GCC bug 105651).
      std::string item = " [";
      item += flag.name;
      if (!flag.metavar.empty()) {
        item += ' ';
        item += flag.metavar;
      }
      item += ']';
      if (line.size() + item.size() > 80) {
        std::cerr << line << "\n";
        line.assign(indent, ' ');
      }
      line += item;
    }
    std::cerr << line << "\n";
  }
  return 2;
}

}  // namespace
}  // namespace qperc::cli

int main(int argc, char** argv) {
  using namespace qperc::cli;
  using qperc::Args;
  // A two-word path (`study run`) wins over its one-word prefix (`study`).
  const Command* command = nullptr;
  int first = 0;
  for (const Command& candidate : commands()) {
    if (argc > 2 && candidate.path == std::string(argv[1]) + " " + argv[2]) {
      command = &candidate;
      first = 3;
    } else if (argc > 1 && candidate.path == argv[1] && first < 3) {
      command = &candidate;
      first = 2;
    }
  }
  if (command == nullptr) return usage();
  try {
    return command->run(Args(command->path, command->flags, argc, argv, first));
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 2;  // all bad input exits 2, same as usage()
  }
}
