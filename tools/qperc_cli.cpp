// qperc — command-line frontend for the testbed and the user studies.
//
//   qperc catalog                       list the 36 study websites
//   qperc protocols                     list protocol configurations
//   qperc networks                      list emulated networks
//   qperc trial    --site S --protocol P --network N [--seed K] [--csv]
//                  [--trace out.jsonl]
//   qperc video    --site S --protocol P --network N [--runs R] [--seed K]
//   qperc study    --kind ab|rating [--group lab|uworker|internet]
//                  [--runs R] [--sites N] [--seed K]
//   qperc campaign run|status|export    the full experiment grid as a
//                  durable, resumable, parallel campaign (src/runner)
//   qperc fairness --flows N --mix M    multi-flow contention cells: per-flow
//                  goodput, Jain's index, queue occupancy, QoE under load
//   qperc bench throughput              steady-state trial throughput through
//                  a reused TrialContext (trials/sec, allocations/trial)
#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/protocol.hpp"
#include "core/trial.hpp"
#include "core/trial_context.hpp"
#include "core/video.hpp"
#include "net/profile.hpp"
#include "population/checkpoint.hpp"
#include "population/population_study.hpp"
#include "runner/campaign.hpp"
#include "sim/simulator.hpp"
#include "runner/campaign_runner.hpp"
#include "runner/fairness.hpp"
#include "runner/result_store.hpp"
#include "runner/torture.hpp"
#include "stats/stats.hpp"
#include "stats/streaming.hpp"
#include "study/ab_study.hpp"
#include "study/rating_study.hpp"
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

int usage() {
  std::cerr
      << "usage: qperc <command> [flags]\n"
         "  catalog [--export FILE] [--catalog FILE] | protocols | networks\n"
         "  trial --site S --protocol P --network N [--seed K] [--csv]\n"
         "        [--catalog FILE] [--trace out.jsonl] [--max-events N]\n"
         "        [--loss P] [--uplink-mbps M] [--downlink-mbps M] [--rtt-ms T]\n"
         "        [--queue-ms T] [--reorder-rate P --reorder-min-ms T --reorder-max-ms T]\n"
         "        [--dup-rate P] [--ge-enter P --ge-exit P --ge-loss-good P --ge-loss-bad P]\n"
         "        [--outage-start-ms T --outage-ms T [--outage-interval-ms T]]\n"
         "        [--rate-schedule ms:mbps,ms:mbps,...] [--link-trace lte|wifi]\n"
         "        [--link-trace-seed K] [--policer-rate-mbps M [--policer-burst-kb N]]\n"
         "  torture [--seed K] [--grid small|full] [--max-events N] [--quiet]\n"
         "  video --site S --protocol P --network N [--runs R] [--seed K]\n"
         "  study --kind ab|rating [--group lab|uworker|internet] [--runs R]\n"
         "        [--sites N] [--seed K]\n"
         "  study run    [--kind ab|rating] [--group G] [--participants N] [--jobs J]\n"
         "               [--shard I/N] [--resume] [--out DIR] [--export FILE]\n"
         "               [--seed K] [--sites N] [--runs R] [--block-size B]\n"
         "               [--max-blocks N] [--checkpoint-every N] [--videos-work N]\n"
         "               [--videos-free N] [--videos-plane N] [--videos-ab N]\n"
         "               [--link-trace lte|wifi] [--link-trace-seed K]\n"
         "               [--policer-rate-mbps M [--policer-burst-kb N]] [--quiet]\n"
         "  study report [--kind ab|rating] [--group G] [--participants N] [--out DIR]\n"
         "               [--export FILE] [--seed K] [--sites N] [--runs R]\n"
         "               [--link-trace lte|wifi] [--link-trace-seed K]\n"
         "               [--policer-rate-mbps M [--policer-burst-kb N]]\n"
         "  campaign run    [--jobs J] [--shard I/N] [--resume] [--out DIR]\n"
         "                  [--sites N] [--runs R] [--seed K] [--protocols A,B]\n"
         "                  [--networks A,B] [--checkpoint-every N] [--max-tasks N]\n"
         "                  [--retries N] [--quiet]\n"
         "  campaign status [--out DIR] [--sites N] [--runs R] [--seed K]\n"
         "                  [--protocols A,B] [--networks A,B]\n"
         "  campaign export [--out DIR] [--sites N] [--runs R] [--seed K]\n"
         "                  [--protocols A,B] [--networks A,B]\n"
         "  fairness [--sites A,B] [--protocols A,B] [--networks A,B] [--flows N,M]\n"
         "           [--mix cubic|reno|bbr|quic|mixed,..] [--stagger-ms T,U]\n"
         "           [--runs R] [--seed K] [--burst-kb N] [--off-ms T]\n"
         "           [--link-trace lte|wifi] [--link-trace-seed K]\n"
         "           [--policer-rate-mbps M [--policer-burst-kb N]] [--jobs J]\n"
         "           [--shard I/N] [--resume] [--out DIR] [--export FILE]\n"
         "           [--max-cells N] [--retries N] [--checkpoint-every N]\n"
         "           [--report] [--quiet]\n"
         "  bench throughput [--site S] [--protocol P] [--network N] [--trials N]\n"
         "                  [--warmup N] [--seed K] [--catalog FILE]\n";
  return 2;
}

const net::NetworkProfile& network_by_name(const std::string& name) {
  for (const auto& profile : net::all_profiles()) {
    if (profile.name == name) return profile;
  }
  throw std::invalid_argument("unknown network '" + name + "' (DSL, LTE, DA2GC, MSS)");
}

/// --runs as a trial count: at least one, and small enough for std::uint32_t
/// (a larger value would silently wrap, 2^32 to zero).
std::uint32_t runs_arg(const Args& args, std::uint32_t fallback) {
  const std::uint64_t runs = args.get_u64("runs", fallback);
  if (runs == 0 || runs > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("--runs expects 1.." +
                                std::to_string(std::numeric_limits<std::uint32_t>::max()) +
                                ", got " + std::to_string(runs));
  }
  return static_cast<std::uint32_t>(runs);
}

std::vector<web::Website> resolve_catalog(const Args& args) {
  if (args.has("catalog")) return web::load_catalog(args.get("catalog", ""));
  return web::study_catalog(args.get_u64("seed", 7));
}

/// Applies the profile/impairment override flags shared by `trial`, then
/// validates so an out-of-range value (negative loss, zero bandwidth, ...)
/// fails here with an actionable message instead of misbehaving in the sim.
net::NetworkProfile apply_profile_overrides(net::NetworkProfile profile, const Args& args) {
  if (args.has("loss")) profile.loss_rate = args.get_double("loss", 0.0);
  if (args.has("uplink-mbps")) {
    profile.uplink = DataRate::megabits_per_second(args.get_double("uplink-mbps", 0.0));
  }
  if (args.has("downlink-mbps")) {
    profile.downlink = DataRate::megabits_per_second(args.get_double("downlink-mbps", 0.0));
  }
  if (args.has("rtt-ms")) {
    profile.min_rtt = from_seconds(args.get_double("rtt-ms", 0.0) / 1e3);
  }
  if (args.has("queue-ms")) {
    profile.queue_delay = from_seconds(args.get_double("queue-ms", 0.0) / 1e3);
  }
  net::LinkImpairments& imp = profile.impairments;
  if (args.has("reorder-rate")) imp.reorder_rate = args.get_double("reorder-rate", 0.0);
  if (args.has("reorder-min-ms")) {
    imp.reorder_delay_min = from_seconds(args.get_double("reorder-min-ms", 0.0) / 1e3);
  }
  if (args.has("reorder-max-ms")) {
    imp.reorder_delay_max = from_seconds(args.get_double("reorder-max-ms", 0.0) / 1e3);
  }
  if (args.has("dup-rate")) imp.duplicate_rate = args.get_double("dup-rate", 0.0);
  if (args.has("ge-enter")) imp.gilbert_elliott.enter_bad = args.get_double("ge-enter", 0.0);
  if (args.has("ge-exit")) imp.gilbert_elliott.exit_bad = args.get_double("ge-exit", 0.0);
  if (args.has("ge-loss-good")) {
    imp.gilbert_elliott.loss_good = args.get_double("ge-loss-good", 0.0);
  }
  if (args.has("ge-loss-bad")) {
    imp.gilbert_elliott.loss_bad = args.get_double("ge-loss-bad", 0.0);
  }
  if (args.has("outage-start-ms")) {
    imp.outage_start = SimTime{from_seconds(args.get_double("outage-start-ms", 0.0) / 1e3)};
  }
  if (args.has("outage-ms")) {
    imp.outage_duration = from_seconds(args.get_double("outage-ms", 0.0) / 1e3);
  }
  if (args.has("outage-interval-ms")) {
    imp.outage_interval = from_seconds(args.get_double("outage-interval-ms", 0.0) / 1e3);
  }
  if (args.has("policer-rate-mbps")) {
    imp.policer_rate =
        DataRate::megabits_per_second(args.get_double("policer-rate-mbps", 0.0));
    // Carrier policers are commonly provisioned with bursts in the tens of
    // kilobytes; 64 kB is the documented default, override with --policer-burst-kb.
    imp.policer_burst_bytes = args.get_u64("policer-burst-kb", 64) * 1024;
  }
  if (args.has("rate-schedule")) {
    // "ms:mbps,ms:mbps,..." — step changes of the downlink serialization rate.
    const auto parts = split_csv(args.get("rate-schedule", ""));
    if (parts.empty() || parts.size() > net::RateSchedule::kMaxSteps) {
      throw std::invalid_argument(
          "--rate-schedule expects 1.." + std::to_string(net::RateSchedule::kMaxSteps) +
          " comma-separated ms:mbps pairs");
    }
    std::array<net::RateStep, net::RateSchedule::kMaxSteps> steps{};
    for (std::size_t i = 0; i < parts.size(); ++i) {
      const auto colon = parts[i].find(':');
      if (colon == std::string::npos) {
        throw std::invalid_argument("--rate-schedule step '" + parts[i] +
                                    "' is not ms:mbps");
      }
      try {
        steps[i].at = from_seconds(std::stod(parts[i].substr(0, colon)) / 1e3);
        steps[i].rate =
            DataRate::megabits_per_second(std::stod(parts[i].substr(colon + 1)));
      } catch (const std::exception&) {
        throw std::invalid_argument("--rate-schedule step '" + parts[i] +
                                    "' is not ms:mbps");
      }
    }
    profile.downlink_schedule = net::RateSchedule::steps(steps.data(), parts.size());
  }
  if (args.has("link-trace")) {
    // Synthetic Mahimahi-style variable-rate trace modulating the downlink
    // around its base rate. (The ISSUE sketch called this `--trace`, but that
    // flag already names the JSONL event-trace output path.)
    const std::string kind = args.get("link-trace", "lte");
    const std::uint64_t trace_seed = args.get_u64("link-trace-seed", 1);
    if (kind == "lte") {
      profile.downlink_schedule = net::RateSchedule::lte_trace(profile.downlink, trace_seed);
    } else if (kind == "wifi") {
      profile.downlink_schedule =
          net::RateSchedule::wifi_trace(profile.downlink, trace_seed);
    } else {
      throw std::invalid_argument("--link-trace expects lte or wifi, got '" + kind + "'");
    }
  }
  profile.validate();
  return profile;
}

int cmd_catalog(const Args& args) {
  const auto catalog = resolve_catalog(args);
  if (args.has("export")) {
    web::save_catalog(args.get("export", "catalog.txt"), catalog);
    std::cout << "wrote " << args.get("export", "catalog.txt") << " (" << catalog.size()
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

int cmd_protocols() {
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

int cmd_networks() {
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
  const auto catalog = resolve_catalog(args);
  const std::string site_name = args.get("site", "wikipedia.org");
  const web::Website* site = nullptr;
  for (const auto& candidate : catalog) {
    if (candidate.name == site_name) site = &candidate;
  }
  if (site == nullptr) {
    std::cerr << "unknown site '" << site_name << "' — see `qperc catalog`\n";
    return 2;
  }
  const auto& protocol = core::protocol_by_name(args.get("protocol", "QUIC"));
  const net::NetworkProfile profile =
      apply_profile_overrides(network_by_name(args.get("network", "DSL")), args);

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
  if (args.has("trace")) {
    const std::string path = args.get("trace", "trace.jsonl");
    if (path == "true") {  // bare `--trace`: the parser's boolean-flag value
      std::cerr << "--trace requires an output path, e.g. --trace out.jsonl\n";
      return 2;
    }
    trace_file.open(path);
    if (!trace_file) {
      std::cerr << "cannot open trace file '" << path << "'\n";
      return 2;
    }
    sink = std::make_unique<TracingSink>(trace_file);
  }

  const auto result = core::run_trial(
      core::TrialSpec(*site, protocol, profile, args.get_u64("seed", 7))
          .with_trace(sink ? sink.get() : nullptr)
          .with_max_events(
              args.get_u64("max-events", sim::Simulator::kDefaultEventCap)));

  if (sink) {
    trace_file.flush();
    const trace::TrialCounters& counters = sink->counters;
    std::cerr << "trace: wrote " << sink->jsonl.events_written() << " events to "
              << args.get("trace", "trace.jsonl") << "\n"
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

  if (args.has("csv")) {
    std::cout << "site,protocol,network,seed,fvc_ms,si_ms,vc85_ms,lvc_ms,plt_ms,"
                 "retransmissions,connections\n"
              << site->name << ',' << protocol.name << ',' << profile.name << ','
              << args.get_u64("seed", 7) << ',' << result.metrics.fvc_ms() << ','
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
  std::cout << site->name << " / " << protocol.name << " / " << profile.name << "\n";
  table.print(std::cout);
  if (!result.metrics.finished) {
    std::cout << "(load did not finish within the event/time budget; metrics are partial)\n";
  }
  return 0;
}

int cmd_video(const Args& args) {
  core::VideoLibrary library(args.get_u64("seed", 7), runs_arg(args, 31));
  const auto& profile = network_by_name(args.get("network", "DSL"));
  const auto& video = library.get(args.get("site", "wikipedia.org"),
                                  args.get("protocol", "QUIC"), profile.kind);
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
  const std::string kind = args.get("kind", "rating");
  if (kind == "ab") return study::StudyKind::kAb;
  if (kind == "rating") return study::StudyKind::kRating;
  throw std::invalid_argument("--kind expects ab or rating, got '" + kind + "'");
}

study::Group group_arg(const Args& args) {
  const std::string group = args.get("group", "uworker");
  if (group == "lab") return study::Group::kLab;
  if (group == "uworker") return study::Group::kMicroworker;
  if (group == "internet") return study::Group::kInternet;
  throw std::invalid_argument("--group expects lab, uworker or internet, got '" + group +
                              "'");
}

int cmd_study(const Args& args) {
  core::VideoLibrary library(args.get_u64("seed", 7), runs_arg(args, 31));
  const auto kind = kind_arg(args);
  const auto group = group_arg(args);
  const std::size_t site_budget = args.get_u64("sites", 36);
  const bool lab_only = site_budget <= web::lab_study_domains().size();

  if (kind == study::StudyKind::kAb) {
    study::AbStudyConfig config;
    config.group = group;
    config.lab_domains_only = lab_only;
    config.seed = args.get_u64("seed", 7);
    const auto result = study::run_ab_study(library, config);
    std::cout << "A/B study, " << study::to_string(group) << ": "
              << result.funnel.initial << " -> " << result.funnel.final_count()
              << " participants after filtering\n\n";
    for (std::size_t p = 0; p < study::ab_pairs().size(); ++p) {
      const auto& [a, b] = study::ab_pairs()[p];
      TextTable table({"Network", "prefer " + a, "No Diff.", "prefer " + b, "replays"});
      for (const auto& profile : net::all_profiles()) {
        const auto it = result.cells.find({p, profile.kind});
        if (it == result.cells.end()) continue;
        table.add_row({profile.name, fmt_percent(it->second.share_first()),
                       fmt_percent(it->second.share_no_difference()),
                       fmt_percent(it->second.share_second()),
                       fmt_fixed(it->second.avg_replays(), 2)});
      }
      std::cout << a << " vs " << b << "\n";
      table.print(std::cout);
      std::cout << "\n";
    }
    return 0;
  }

  study::RatingStudyConfig config;
  config.group = group;
  config.lab_domains_only = lab_only;
  config.seed = args.get_u64("seed", 7);
  const auto result = study::run_rating_study(library, config);
  std::cout << "Rating study, " << study::to_string(group) << ": "
            << result.funnel.initial << " -> " << result.funnel.final_count()
            << " participants after filtering\n\n";
  TextTable table({"Protocol", "Network", "Context", "mean vote ± CI99", "n"});
  for (const auto& [key, votes] : result.votes_by_cell) {
    const auto ci = stats::mean_confidence_interval(votes, 0.99);
    table.add_row({std::get<0>(key), std::string(net::to_string(std::get<1>(key))),
                   std::string(study::to_string(std::get<2>(key))),
                   fmt_fixed(ci.center, 1) + " ± " + fmt_fixed(ci.half_width, 1),
                   std::to_string(votes.size())});
  }
  table.print(std::cout);
  return 0;
}

/// Shared by the fairness and population-study subcommands: the grid-wide
/// variable-rate/policing overlay (--link-trace [--link-trace-seed],
/// --policer-rate-mbps [--policer-burst-kb]).
net::LinkConditions link_conditions_from_args(const Args& args) {
  net::LinkConditions conditions;
  if (args.has("link-trace")) {
    const std::string kind = args.get("link-trace", "lte");
    if (kind == "lte") {
      conditions.link_trace = net::RateSchedule::Kind::kLteTrace;
    } else if (kind == "wifi") {
      conditions.link_trace = net::RateSchedule::Kind::kWifiTrace;
    } else {
      throw std::invalid_argument("--link-trace expects lte or wifi, got '" + kind + "'");
    }
    conditions.link_trace_seed = args.get_u64("link-trace-seed", 1);
  }
  if (args.has("policer-rate-mbps")) {
    conditions.policer_rate =
        DataRate::megabits_per_second(args.get_double("policer-rate-mbps", 0.0));
    conditions.policer_burst_bytes = args.get_u64("policer-burst-kb", 64) * 1024;
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

// --- qperc study run/report (population-scale streaming studies) ------------

population::StudySpec population_spec_from_args(const Args& args) {
  population::StudySpec spec;
  spec.kind = kind_arg(args);
  spec.group = group_arg(args);
  spec.participants = args.get_u64("participants", 10000);
  spec.seed = args.get_u64("seed", 7);
  spec.sites = args.get_u64("sites", 36);
  spec.video_runs = runs_arg(args, 31);
  spec.videos_work = args.get_u64("videos-work", 11);
  spec.videos_free_time = args.get_u64("videos-free", 11);
  spec.videos_plane = args.get_u64("videos-plane", 5);
  spec.videos_ab = args.get_u64("videos-ab", 26);
  spec.conditions = link_conditions_from_args(args);
  spec.validate();
  return spec;
}

/// Checkpoint/export file name for one shard of a streaming study; the
/// identity-bearing fields keep different studies in one --out directory
/// from colliding, mirroring campaign's store_file_name.
std::string population_file_name(const population::StudySpec& spec, unsigned shard_index,
                                 unsigned shard_count) {
  std::string name = "population_seed" + std::to_string(spec.seed) + "_" +
                     std::string(population::kind_token(spec.kind)) + "_" +
                     std::string(study::to_string(spec.group)) + "_n" +
                     std::to_string(spec.participants) +
                     link_conditions_file_tag(spec.conditions);
  if (shard_count > 1) {
    name += "_shard" + std::to_string(shard_index) + "of" + std::to_string(shard_count);
  }
  return name + ".qps";
}

/// Blocks a shard owns under the engine's modulo distribution.
std::uint64_t population_owned_blocks(std::uint64_t participants, std::uint64_t block_size,
                                      unsigned shard_index, unsigned shard_count) {
  const std::uint64_t total = (participants + block_size - 1) / block_size;
  if (total <= shard_index) return 0;
  return (total - shard_index + shard_count - 1) / shard_count;
}

void write_population_export(const std::string& path, const population::StudySpec& spec,
                             const population::Accumulator& acc) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write export file " + path);
  population::write_report(out, spec, acc);
  out.flush();
  if (!out) throw std::runtime_error("failed writing export file " + path);
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

int cmd_study_run(const Args& args) {
  const auto spec = population_spec_from_args(args);

  population::RunOptions options;
  options.jobs = static_cast<unsigned>(args.get_u64("jobs", 0));
  options.block_size = args.get_u64("block-size", 8192);
  options.max_blocks = args.get_u64("max-blocks", 0);
  options.checkpoint_every_blocks = args.get_u64("checkpoint-every", 64);
  options.resume = args.has("resume");
  apply_shard_flag(args, options.shard_index, options.shard_count);
  const std::string out_dir = args.get("out", "out/study");
  std::filesystem::create_directories(out_dir);
  options.checkpoint_path =
      out_dir + "/" + population_file_name(spec, options.shard_index, options.shard_count);

  if (!args.has("quiet")) {
    options.on_progress = [](const population::Progress& progress) {
      std::cerr << "\rstudy: " << progress.participants_done << "/"
                << progress.participants_total << " participants ("
                << progress.resumed_participants << " resumed), "
                << fmt_fixed(progress.participants_per_second, 0) << "/s, ETA "
                << fmt_fixed(progress.eta_seconds, 0) << " s   " << std::flush;
    };
  }

  core::VideoLibrary library(spec.seed, spec.video_runs, spec.conditions);
  // Stimulus production dominates cold-start cost (the whole grid is
  // simulated once); persist the condition cache so reruns, resumes, and
  // sibling shards pay it only once per (seed, runs, link conditions).
  const std::string cache_path = out_dir + "/videos_seed" + std::to_string(spec.seed) +
                                 "_runs" + std::to_string(spec.video_runs) +
                                 link_conditions_file_tag(spec.conditions) + ".qvc";
  if (library.load_cache(cache_path)) {
    std::cerr << "study: reusing " << library.cached_conditions()
              << " cached condition videos from " << cache_path << "\n";
  }
  const std::size_t cached_before = library.cached_conditions();
  const auto report = population::run_streaming_study(library, spec, options);
  if (options.on_progress) std::cerr << "\n";
  if (library.cached_conditions() != cached_before) library.save_cache(cache_path);

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
  if (args.has("export")) {
    const std::string path = args.get("export", "study_report.txt");
    write_population_export(path, spec, report.accumulator);
    std::cerr << "study: report exported to " << path << "\n";
  }
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
  const std::string out_dir = args.get("out", "out/study");
  const auto layout = population::make_accumulator(spec.kind);

  // Candidate shard files share the identity prefix (any shard geometry).
  std::string prefix = population_file_name(spec, 0, 1);
  prefix.resize(prefix.size() - 4);  // strip ".qps"
  std::vector<std::string> files;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(out_dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.rfind(prefix, 0) == 0 && name.ends_with(".qps")) {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
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
    const std::uint64_t owned = population_owned_blocks(
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

  if (args.has("export")) {
    const std::string path = args.get("export", "study_report.txt");
    write_population_export(path, spec, merged);
    std::cerr << "study: report exported to " << path << "\n";
  }
  print_population_summary(spec, merged);
  return 0;
}

// --- qperc campaign ---------------------------------------------------------

/// Builds the grid spec shared by campaign run/status/export: the default
/// is the full paper grid (all sites x 5 protocols x 4 networks).
runner::CampaignSpec spec_from_args(const Args& args) {
  runner::CampaignSpec spec;
  spec.seed = args.get_u64("seed", 7);
  spec.runs = runs_arg(args, 31);

  const std::size_t site_budget = args.get_u64("sites", 36);
  for (const auto& site : web::study_catalog(spec.seed)) {
    if (spec.sites.size() >= site_budget) break;
    spec.sites.push_back(site.name);
  }

  if (args.has("protocols")) {
    for (const auto& name : split_csv(args.get("protocols", ""))) {
      spec.protocols.push_back(core::protocol_by_name(name).name);  // validates
    }
  } else {
    for (const auto& protocol : core::paper_protocols()) {
      spec.protocols.push_back(protocol.name);
    }
  }

  if (args.has("networks")) {
    for (const auto& name : split_csv(args.get("networks", ""))) {
      spec.networks.push_back(network_by_name(name).kind);
    }
  } else {
    for (const auto& profile : net::all_profiles()) spec.networks.push_back(profile.kind);
  }

  apply_shard_flag(args, spec.shard_index, spec.shard_count);
  spec.validate();
  return spec;
}

std::string store_file_name(const runner::CampaignSpec& spec) {
  std::string name =
      "campaign_seed" + std::to_string(spec.seed) + "_runs" + std::to_string(spec.runs);
  if (spec.shard_count > 1) {
    name += "_shard" + std::to_string(spec.shard_index) + "of" +
            std::to_string(spec.shard_count);
  }
  return name + ".qcr";
}

/// All checkpoint files in `out_dir` for this (seed, runs) pair — the
/// unsharded store plus any shard stores, so status/export see the merged
/// progress of a multi-process fan-out.
std::vector<std::string> store_files(const std::string& out_dir,
                                     const runner::CampaignSpec& spec) {
  const std::string prefix =
      "campaign_seed" + std::to_string(spec.seed) + "_runs" + std::to_string(spec.runs);
  std::vector<std::string> files;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(out_dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.rfind(prefix, 0) == 0 && name.ends_with(".qcr")) {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

/// The stored results of the spec's grid (sites x protocols x networks),
/// merged across every checkpoint file for its (seed, runs) pair.
std::map<runner::ResultStore::Key, core::Video> merged_results(
    const std::string& out_dir, const runner::CampaignSpec& spec) {
  const auto in_grid = [&spec](const core::Video& video) {
    return std::ranges::find(spec.sites, video.site) != spec.sites.end() &&
           std::ranges::find(spec.protocols, video.protocol) != spec.protocols.end() &&
           std::ranges::find(spec.networks, video.network) != spec.networks.end();
  };
  std::map<runner::ResultStore::Key, core::Video> merged;
  for (const auto& file : store_files(out_dir, spec)) {
    runner::ResultStore store(file, spec.seed, spec.runs);
    if (!store.load()) {
      std::cerr << "campaign: skipping unreadable or mismatched checkpoint " << file
                << "\n";
      continue;
    }
    store.for_each([&](const core::Video& video) {
      if (!in_grid(video)) return;
      merged.insert_or_assign(
          runner::ResultStore::Key{video.site, video.protocol,
                                   static_cast<int>(video.network)},
          video);
    });
  }
  return merged;
}

int cmd_campaign_run(const Args& args) {
  const auto spec = spec_from_args(args);
  const std::string out_dir = args.get("out", "out/campaign");
  std::filesystem::create_directories(out_dir);

  runner::ResultStore store(out_dir + "/" + store_file_name(spec), spec.seed, spec.runs,
                            args.get_u64("checkpoint-every", 25));
  if (args.has("resume")) {
    if (store.load()) {
      std::cerr << "campaign: resuming — " << store.size()
                << " conditions already checkpointed in " << store.path() << "\n";
    } else {
      std::cerr << "campaign: no usable checkpoint at " << store.path()
                << ", starting fresh\n";
    }
  }

  runner::CampaignOptions options;
  options.jobs = static_cast<unsigned>(args.get_u64("jobs", 0));
  options.max_attempts = static_cast<unsigned>(args.get_u64("retries", 1)) + 1;
  options.max_tasks = args.get_u64("max-tasks", 0);
  if (!args.has("quiet")) {
    options.on_progress = [](const runner::CampaignProgress& progress) {
      std::cerr << "\rcampaign: " << progress.completed << "/" << progress.pending
                << " conditions (" << progress.skipped << " resumed), "
                << fmt_fixed(progress.tasks_per_second, 2) << "/s, ETA "
                << fmt_fixed(progress.eta_seconds, 0) << " s, packets "
                << progress.transport.data_packets_sent << ", retx "
                << progress.transport.retransmissions << "   " << std::flush;
    };
  }

  const auto report = runner::run_campaign(spec, store, options);
  if (options.on_progress) std::cerr << "\n";

  std::cerr << "campaign: " << report.total << " conditions in shard (grid "
            << spec.grid_size() << "), " << report.skipped << " resumed, "
            << report.executed << " executed, " << report.failures.size() << " failed in "
            << fmt_fixed(report.elapsed_seconds, 1) << " s\n";
  const net::TransportStats& totals = report.transport;
  std::cerr << "campaign: totals — packets sent " << totals.data_packets_sent
            << ", retransmissions " << totals.retransmissions << ", timeouts "
            << totals.timeouts << ", handshake packets " << totals.handshake_packets
            << ", congestion events " << totals.congestion_events << "\n";
  for (const auto& failure : report.failures) {
    std::cerr << "campaign: FAILED " << failure.task.site << "/" << failure.task.protocol
              << "/" << net::to_string(failure.task.network) << " after "
              << failure.attempts << " attempt(s): " << failure.message << "\n";
  }
  std::cerr << "campaign: results in " << store.path() << "\n";
  return report.failures.empty() ? 0 : 1;
}

int cmd_campaign_status(const Args& args) {
  const auto spec = spec_from_args(args);
  const std::string out_dir = args.get("out", "out/campaign");
  const auto files = store_files(out_dir, spec);
  const auto merged = merged_results(out_dir, spec);

  std::cout << "campaign store: " << out_dir << " (" << files.size()
            << " checkpoint file(s), seed " << spec.seed << ", runs " << spec.runs
            << ")\n";
  std::cout << "completed: " << merged.size() << " / " << spec.grid_size()
            << " conditions\n";

  TextTable table({"Network", "completed", "of"});
  for (const auto kind : spec.networks) {
    std::size_t done = 0;
    for (const auto& [key, video] : merged) {
      if (std::get<2>(key) == static_cast<int>(kind)) ++done;
    }
    table.add_row({std::string(net::to_string(kind)), std::to_string(done),
                   std::to_string(spec.sites.size() * spec.protocols.size())});
  }
  table.print(std::cout);
  return 0;
}

int cmd_campaign_export(const Args& args) {
  const auto spec = spec_from_args(args);
  const auto merged = merged_results(args.get("out", "out/campaign"), spec);

  std::cout << "site,protocol,network,runs,fvc_ms,si_ms,vc85_ms,lvc_ms,plt_ms,"
               "mean_fvc_ms,mean_si_ms,mean_vc85_ms,mean_lvc_ms,mean_plt_ms,"
               "mean_retransmissions,vc_points\n";
  std::cout.precision(17);
  for (const auto& [key, video] : merged) {
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

// --- qperc fairness ---------------------------------------------------------

std::uint32_t parse_u32_field(const std::string& text, const char* flag) {
  std::uint32_t value = 0;
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || end != text.data() + text.size()) {
    throw std::invalid_argument(std::string("--") + flag +
                                " expects non-negative integers, got '" + text + "'");
  }
  return value;
}

double parse_double_field(const std::string& text, const char* flag) {
  double value = 0.0;
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || end != text.data() + text.size()) {
    throw std::invalid_argument(std::string("--") + flag + " expects numbers, got '" +
                                text + "'");
  }
  return value;
}

/// Builds the fairness grid spec shared by run/report/export. The default is
/// one cell: the first catalog site, QUIC over DSL, 16 cubic cross flows.
runner::FairnessSpec fairness_spec_from_args(const Args& args) {
  runner::FairnessSpec spec;
  spec.seed = args.get_u64("seed", 7);
  spec.runs = runs_arg(args, 5);

  const auto catalog = web::study_catalog(spec.seed);
  if (args.has("sites")) {
    for (const auto& name : split_csv(args.get("sites", ""))) {
      bool known = false;
      for (const auto& site : catalog) known = known || site.name == name;
      if (!known) {
        throw std::invalid_argument("unknown site '" + name + "' — see `qperc catalog`");
      }
      spec.sites.push_back(name);
    }
  } else {
    spec.sites.push_back(catalog.front().name);
  }

  if (args.has("protocols")) {
    for (const auto& name : split_csv(args.get("protocols", ""))) {
      spec.protocols.push_back(core::protocol_by_name(name).name);  // validates
    }
  } else {
    spec.protocols.emplace_back("QUIC");
  }

  if (args.has("networks")) {
    for (const auto& name : split_csv(args.get("networks", ""))) {
      spec.networks.push_back(network_by_name(name).kind);
    }
  } else {
    spec.networks.push_back(net::NetworkKind::kDsl);
  }

  for (const auto& text : split_csv(args.get("flows", "16"))) {
    spec.flow_counts.push_back(parse_u32_field(text, "flows"));
  }
  for (const auto& text : split_csv(args.get("mix", "cubic"))) {
    spec.mixes.push_back(net::parse_cross_mix(text));
  }
  for (const auto& text : split_csv(args.get("stagger-ms", "0"))) {
    spec.staggers.push_back(from_seconds(parse_double_field(text, "stagger-ms") / 1e3));
  }
  spec.burst_bytes = args.get_u64("burst-kb", 0) * 1024;
  spec.off_time = from_seconds(args.get_double("off-ms", 0.0) / 1e3);
  const net::LinkConditions conditions = link_conditions_from_args(args);
  spec.link_trace = conditions.link_trace;
  spec.link_trace_seed = conditions.link_trace_seed;
  spec.policer_rate = conditions.policer_rate;
  spec.policer_burst_bytes = conditions.policer_burst_bytes;
  apply_shard_flag(args, spec.shard_index, spec.shard_count);
  spec.validate();
  return spec;
}

std::string fairness_file_name(const runner::FairnessSpec& spec) {
  std::string name =
      "fairness_seed" + std::to_string(spec.seed) + "_runs" + std::to_string(spec.runs);
  if (spec.shard_count > 1) {
    name += "_shard" + std::to_string(spec.shard_index) + "of" +
            std::to_string(spec.shard_count);
  }
  return name + ".qfr";
}

/// All fairness checkpoints in `out_dir` for this (seed, runs) — the
/// unsharded store plus shard stores; incompatible axes are filtered out by
/// the fingerprint check inside absorb().
std::vector<std::string> fairness_files(const std::string& out_dir,
                                        const runner::FairnessSpec& spec) {
  const std::string prefix =
      "fairness_seed" + std::to_string(spec.seed) + "_runs" + std::to_string(spec.runs);
  std::vector<std::string> files;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(out_dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.rfind(prefix, 0) == 0 && name.ends_with(".qfr")) {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

/// Writes the merged cells as canonical record lines (key-sorted, fixed field
/// order, max_digits10 doubles) — byte-identical for identical grids
/// regardless of --jobs, shard split, or resume history.
void write_fairness_export(const std::string& path, const runner::FairnessStore& store) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write export file " + path);
  store.for_each(
      [&out](const runner::FairnessCell& cell) { runner::write_fairness_record(out, cell); });
  out.flush();
  if (!out) throw std::runtime_error("failed writing export file " + path);
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
  const std::string out_dir = args.get("out", "out/fairness");
  std::filesystem::create_directories(out_dir);

  // --report: merge every compatible checkpoint in --out and print/export
  // without running anything (the multi-shard rendezvous).
  if (args.has("report")) {
    runner::FairnessStore merged(out_dir + "/.fairness_merge.tmp", spec.seed, spec.runs,
                                 spec.fingerprint());
    std::size_t absorbed = 0;
    for (const auto& file : fairness_files(out_dir, spec)) {
      if (merged.absorb(file)) {
        ++absorbed;
      } else {
        std::cerr << "fairness: skipping unreadable or mismatched checkpoint " << file
                  << "\n";
      }
    }
    if (absorbed == 0) {
      std::cerr << "fairness: no usable checkpoints in " << out_dir
                << " — run `qperc fairness` first\n";
      return 1;
    }
    std::cerr << "fairness: merged " << merged.size() << "/" << spec.grid_size()
              << " cells from " << absorbed << " checkpoint(s)\n";
    if (args.has("export")) {
      const std::string path = args.get("export", "fairness.txt");
      write_fairness_export(path, merged);
      std::cerr << "fairness: exported to " << path << "\n";
    }
    print_fairness_summary(merged);
    return merged.size() == spec.grid_size() ? 0 : 1;
  }

  runner::FairnessStore store(out_dir + "/" + fairness_file_name(spec), spec.seed,
                              spec.runs, spec.fingerprint(),
                              args.get_u64("checkpoint-every", 8));
  if (args.has("resume")) {
    if (store.load()) {
      std::cerr << "fairness: resuming — " << store.size()
                << " cells already checkpointed in " << store.path() << "\n";
    } else {
      std::cerr << "fairness: no usable checkpoint at " << store.path()
                << ", starting fresh\n";
    }
  }

  runner::FairnessOptions options;
  options.jobs = static_cast<unsigned>(args.get_u64("jobs", 0));
  options.max_attempts = static_cast<unsigned>(args.get_u64("retries", 1)) + 1;
  options.max_tasks = args.get_u64("max-cells", 0);
  if (!args.has("quiet")) {
    options.on_progress = [](const runner::FairnessProgress& progress) {
      std::cerr << "\rfairness: " << progress.completed << "/" << progress.pending
                << " cells (" << progress.skipped << " resumed), ETA "
                << fmt_fixed(progress.eta_seconds, 0) << " s   " << std::flush;
    };
  }

  const auto report = runner::run_fairness(spec, store, options);
  if (options.on_progress) std::cerr << "\n";

  std::cerr << "fairness: " << report.total << " cells in shard (grid "
            << spec.grid_size() << "), " << report.skipped << " resumed, "
            << report.executed << " executed, " << report.failures.size() << " failed in "
            << fmt_fixed(report.elapsed_seconds, 1) << " s\n";
  for (const auto& failure : report.failures) {
    std::cerr << "fairness: FAILED " << failure.task.site << "/" << failure.task.protocol
              << "/" << net::to_string(failure.task.network) << "/"
              << failure.task.flows << "x" << net::to_string(failure.task.mix)
              << " after " << failure.attempts << " attempt(s): " << failure.message
              << "\n";
  }
  std::cerr << "fairness: results in " << store.path() << "\n";
  if (!report.failures.empty()) return 1;

  if (spec.shard_count > 1) {
    std::cerr << "fairness: shard " << spec.shard_index << "/" << spec.shard_count
              << " done — merge with `qperc fairness --report`\n";
    return 0;
  }
  if (args.has("export")) {
    const std::string path = args.get("export", "fairness.txt");
    write_fairness_export(path, store);
    std::cerr << "fairness: exported to " << path << "\n";
  }
  if (store.size() == spec.grid_size()) print_fairness_summary(store);
  return 0;
}

int cmd_torture(const Args& args) {
  runner::TortureOptions options;
  options.seed = args.get_u64("seed", 1);
  options.grid = runner::parse_torture_grid(args.get("grid", "small"));
  options.max_events_per_trial = args.get_u64("max-events", options.max_events_per_trial);
  const auto report =
      runner::run_torture(options, args.has("quiet") ? nullptr : &std::cerr);
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
  const auto catalog = resolve_catalog(args);
  const std::string site_name = args.get("site", "apache.org");
  const web::Website* site = nullptr;
  for (const auto& candidate : catalog) {
    if (candidate.name == site_name) site = &candidate;
  }
  if (site == nullptr) {
    std::cerr << "unknown site '" << site_name << "' — see `qperc catalog`\n";
    return 2;
  }
  const auto& protocol = core::protocol_by_name(args.get("protocol", "QUIC"));
  const net::NetworkProfile& profile = network_by_name(args.get("network", "DSL"));
  const std::uint64_t trials = args.get_u64("trials", 2000);
  const std::uint64_t warmup = args.get_u64("warmup", 3);
  if (trials == 0) {
    std::cerr << "--trials must be at least 1\n";
    return 2;
  }
  std::uint64_t seed = args.get_u64("seed", 1);

  core::TrialContext context;
  // Warm-up trials grow the arena blocks and container capacities to their
  // high-water marks so the timed region measures the steady state.
  for (std::uint64_t i = 0; i < warmup; ++i) {
    static_cast<void>(context.run(core::TrialSpec(*site, protocol, profile, seed++)));
  }

  const std::uint64_t allocs_before = heap_allocations();
  double plt_sum_ms = 0.0;
  std::uint64_t events = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < trials; ++i) {
    const auto result = context.run(core::TrialSpec(*site, protocol, profile, seed++));
    plt_sum_ms += result.metrics.plt_ms();
    events += context.simulator().events_processed();
  }
  const auto t1 = std::chrono::steady_clock::now();
  const double total_ns = std::chrono::duration<double, std::nano>(t1 - t0).count();
  const double dt = static_cast<double>(trials);
  const std::uint64_t allocs = heap_allocations() - allocs_before;

  std::cout << "bench throughput: " << site->name << " / " << protocol.name << " / "
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

int cmd_bench(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string sub = argv[2];
  if (sub == "throughput") {
    return cmd_bench_throughput(
        Args(argc, argv, 3, "bench throughput",
             {"site", "protocol", "network", "trials", "warmup", "seed", "catalog"}));
  }
  std::cerr << "unknown bench subcommand '" << sub << "' (throughput)\n";
  return usage();
}

int cmd_campaign(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string sub = argv[2];
  if (sub == "run") {
    return cmd_campaign_run(Args(argc, argv, 3, "campaign run",
                                 {"jobs", "shard", "resume", "out", "sites", "runs",
                                  "seed", "protocols", "networks", "checkpoint-every",
                                  "max-tasks", "retries", "quiet"}));
  }
  if (sub == "status") {
    return cmd_campaign_status(Args(argc, argv, 3, "campaign status",
                                    {"out", "sites", "runs", "seed", "protocols",
                                     "networks"}));
  }
  if (sub == "export") {
    return cmd_campaign_export(Args(argc, argv, 3, "campaign export",
                                    {"out", "sites", "runs", "seed", "protocols",
                                     "networks"}));
  }
  std::cerr << "unknown campaign subcommand '" << sub << "' (run|status|export)\n";
  return usage();
}

}  // namespace
}  // namespace qperc::cli

int main(int argc, char** argv) {
  using namespace qperc::cli;
  using qperc::Args;
  if (argc < 2) return usage();
  const std::string command = argv[1];
  try {
    if (command == "catalog") {
      return cmd_catalog(Args(argc, argv, 2, "catalog", {"export", "catalog", "seed"}));
    }
    if (command == "protocols") {
      static_cast<void>(Args(argc, argv, 2, "protocols", {}));
      return cmd_protocols();
    }
    if (command == "networks") {
      static_cast<void>(Args(argc, argv, 2, "networks", {}));
      return cmd_networks();
    }
    if (command == "trial") {
      return cmd_trial(Args(argc, argv, 2, "trial",
                            {"site", "protocol", "network", "seed", "csv", "catalog",
                             "trace", "max-events", "loss", "uplink-mbps",
                             "downlink-mbps", "rtt-ms", "queue-ms", "reorder-rate",
                             "reorder-min-ms", "reorder-max-ms", "dup-rate", "ge-enter",
                             "ge-exit", "ge-loss-good", "ge-loss-bad", "outage-start-ms",
                             "outage-ms", "outage-interval-ms", "rate-schedule",
                             "link-trace", "link-trace-seed", "policer-rate-mbps",
                             "policer-burst-kb"}));
    }
    if (command == "torture") {
      return cmd_torture(
          Args(argc, argv, 2, "torture", {"seed", "grid", "max-events", "quiet"}));
    }
    if (command == "video") {
      return cmd_video(
          Args(argc, argv, 2, "video", {"site", "protocol", "network", "runs", "seed"}));
    }
    if (command == "study") {
      if (argc >= 3 && std::string_view(argv[2]) == "run") {
        return cmd_study_run(Args(
            argc, argv, 3, "study run",
            {"kind", "group", "participants", "seed", "sites", "runs", "videos-work",
             "videos-free", "videos-plane", "videos-ab", "jobs", "shard", "block-size",
             "max-blocks", "checkpoint-every", "resume", "out", "export", "quiet",
             "link-trace", "link-trace-seed", "policer-rate-mbps", "policer-burst-kb"}));
      }
      if (argc >= 3 && std::string_view(argv[2]) == "report") {
        return cmd_study_report(
            Args(argc, argv, 3, "study report",
                 {"kind", "group", "participants", "seed", "sites", "runs", "videos-work",
                  "videos-free", "videos-plane", "videos-ab", "out", "export",
                  "link-trace", "link-trace-seed", "policer-rate-mbps",
                  "policer-burst-kb"}));
      }
      return cmd_study(
          Args(argc, argv, 2, "study", {"kind", "group", "runs", "sites", "seed"}));
    }
    if (command == "campaign") return cmd_campaign(argc, argv);
    if (command == "fairness") {
      return cmd_fairness(
          Args(argc, argv, 2, "fairness",
               {"sites", "protocols", "networks", "flows", "mix", "stagger-ms", "runs",
                "seed", "burst-kb", "off-ms", "link-trace", "link-trace-seed",
                "policer-rate-mbps", "policer-burst-kb", "jobs", "shard", "resume",
                "out", "export", "max-cells", "retries", "checkpoint-every", "report",
                "quiet"}));
    }
    if (command == "bench") return cmd_bench(argc, argv);
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 2;  // all bad input exits 2, same as usage()
  }
  return usage();
}
