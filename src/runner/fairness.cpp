#include "runner/fairness.hpp"

#include <iomanip>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/protocol.hpp"
#include "core/trial.hpp"
#include "core/trial_context.hpp"
#include "stats/stats.hpp"
#include "util/rng.hpp"
#include "web/website.hpp"

namespace qperc::runner {

void FairnessSpec::validate() const {
  GridAxes::validate();
  check_axis(flow_counts, "flow counts");
  check_axis(mixes, "mixes");
  check_axis(staggers, "staggers");
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
              if (owns(grid_index)) {
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

void FairnessCodec::write(std::ostream& os, const FairnessCell& cell) {
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
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

bool FairnessCodec::read(std::istream& is, FairnessCell& cell) {
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
  core::TrialContext context;
  return run_cell(task, spec, web::site_by_name(catalog, task.site), context);
}

GridReport<FairnessTask> run_fairness(const FairnessSpec& spec, FairnessStore& store,
                                      const GridOptions& options) {
  return run_grid(spec, store,
                  FairnessStore::identity_for(spec.seed, spec.runs, spec.fingerprint()),
                  options,
                  [&spec](const FairnessTask& task, const web::Website& site,
                          net::TransportStats& /*ledger*/) {
                    core::TrialContext context;
                    return run_cell(task, spec, site, context);
                  });
}

}  // namespace qperc::runner
