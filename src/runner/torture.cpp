#include "runner/torture.hpp"

#include <array>
#include <exception>
#include <ostream>
#include <utility>

#include "browser/page_loader.hpp"
#include "core/protocol.hpp"
#include "core/trial_context.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "web/website.hpp"

namespace qperc::runner {
namespace {

/// Trials run sequentially, so a plain counter under the process-global
/// violation handler is race-free.
std::uint64_t g_violations = 0;

void counting_handler(const char* /*file*/, int /*line*/, const char* /*expr*/,
                      const std::string& /*message*/) {
  ++g_violations;
}

/// Restores the previous handler even when a trial throws.
class HandlerGuard {
 public:
  HandlerGuard() : previous_(check::set_violation_handler(&counting_handler)) {}
  ~HandlerGuard() { check::set_violation_handler(previous_); }
  HandlerGuard(const HandlerGuard&) = delete;
  HandlerGuard& operator=(const HandlerGuard&) = delete;

 private:
  check::ViolationHandler previous_;
};

void add_failure(TortureReport& report, std::size_t cap, std::string line) {
  if (report.failures.size() < cap) report.failures.push_back(std::move(line));
}

}  // namespace

TortureGrid parse_torture_grid(std::string_view name) {
  if (name == "small") return TortureGrid::kSmall;
  if (name == "full") return TortureGrid::kFull;
  throw std::invalid_argument("unknown torture grid '" + std::string(name) +
                              "' (expected 'small' or 'full')");
}

std::vector<TortureScenario> torture_scenarios(const net::NetworkProfile& base) {
  std::vector<TortureScenario> scenarios;
  const auto derive = [&](std::string name, auto mutate) {
    net::NetworkProfile profile = base;
    profile.name = std::string(base.name) + "/" + name;
    mutate(profile.impairments);
    profile.validate();
    scenarios.push_back(TortureScenario{std::move(name), std::move(profile)});
  };

  derive("reorder-heavy", [](net::LinkImpairments& imp) {
    imp.reorder_rate = 0.35;
    imp.reorder_delay_min = milliseconds(2);
    imp.reorder_delay_max = milliseconds(40);
  });
  derive("duplicate-storm", [](net::LinkImpairments& imp) { imp.duplicate_rate = 0.3; });
  derive("ge-burst", [](net::LinkImpairments& imp) {
    imp.gilbert_elliott = net::GilbertElliott{
        .enter_bad = 0.03, .exit_bad = 0.25, .loss_good = 0.0, .loss_bad = 0.5};
  });
  derive("flapping", [](net::LinkImpairments& imp) {
    imp.outage_start = SimTime{seconds(1)};
    imp.outage_duration = milliseconds(300);
    imp.outage_interval = seconds(3);
  });
  derive("kitchen-sink", [](net::LinkImpairments& imp) {
    imp.reorder_rate = 0.2;
    imp.reorder_delay_min = milliseconds(1);
    imp.reorder_delay_max = milliseconds(50);
    imp.duplicate_rate = 0.1;
    imp.gilbert_elliott = net::GilbertElliott{
        .enter_bad = 0.02, .exit_bad = 0.3, .loss_good = 0.0, .loss_bad = 0.4};
    imp.outage_start = SimTime{seconds(2)};
    imp.outage_duration = milliseconds(250);
    imp.outage_interval = seconds(5);
  });
  return scenarios;
}

std::vector<TortureScenario> contention_scenarios(const net::NetworkProfile& base) {
  std::vector<TortureScenario> scenarios;
  const auto derive = [&](std::string name, auto mutate) {
    TortureScenario scenario{name, base, {}};
    scenario.profile.name = std::string(base.name) + "/" + name;
    mutate(scenario.profile.impairments, scenario.contention);
    scenario.profile.validate();
    scenario.contention.validate();
    scenarios.push_back(std::move(scenario));
  };

  // 8 cubic bulk flows saturating an otherwise clean bottleneck: droptail
  // pressure, sustained queue-full drops, and heavy page retransmissions.
  derive("contended-8cubic", [](net::LinkImpairments& /*imp*/, net::ContentionConfig& crowd) {
    crowd.flows = 8;
    crowd.mix = net::CrossMix::kCubic;
  });
  // Reordering layered over a mixed TCP/QUIC on-off crowd: loss recovery,
  // reorder buffers, and endpoint demux all churn at once.
  derive("reorder-contended", [](net::LinkImpairments& imp, net::ContentionConfig& crowd) {
    imp.reorder_rate = 0.35;
    imp.reorder_delay_min = milliseconds(2);
    imp.reorder_delay_max = milliseconds(40);
    crowd.flows = 4;
    crowd.mix = net::CrossMix::kMixed;
    crowd.start_stagger = milliseconds(250);
    crowd.burst_bytes = 256 * 1024;
    crowd.off_time = milliseconds(100);
  });
  return scenarios;
}

std::vector<TortureScenario> schedule_scenarios(const net::NetworkProfile& base) {
  std::vector<TortureScenario> scenarios;
  const auto derive = [&](std::string name, auto mutate) {
    net::NetworkProfile profile = base;
    profile.name = std::string(base.name) + "/" + name;
    mutate(profile);
    profile.validate();
    scenarios.push_back(TortureScenario{std::move(name), std::move(profile)});
  };

  // Synthetic cellular/Wi-Fi downlink rate traces: mid-backlog serialization
  // re-derivation on every epoch boundary, all trial long.
  derive("lte-trace", [](net::NetworkProfile& profile) {
    profile.downlink_schedule = net::RateSchedule::lte_trace(profile.downlink, 11);
  });
  derive("wifi-trace", [](net::NetworkProfile& profile) {
    profile.downlink_schedule = net::RateSchedule::wifi_trace(profile.downlink, 12);
  });

  // Token-bucket policer at half the provisioned rate: sustained
  // post-serialization drops once the burst drains (BBR's lt_bw food).
  derive("policed", [](net::NetworkProfile& profile) {
    profile.impairments.policer_rate = profile.downlink.scaled(0.5);
    profile.impairments.policer_burst_bytes = 64 * 1024;
  });

  // Sudden 10x rate cliff one second in, recovering two seconds later: the
  // RTT inflation that historically triggered spurious-RTO retransmit storms.
  derive("rate-cliff", [](net::NetworkProfile& profile) {
    const std::array<net::RateStep, 3> steps{{
        {SimDuration::zero(), profile.downlink},
        {seconds(1), profile.downlink.scaled(0.1)},
        {seconds(3), profile.downlink},
    }};
    profile.downlink_schedule = net::RateSchedule::steps(steps.data(), steps.size());
  });
  return scenarios;
}

net::NetworkProfile zero_delay_profile() {
  net::NetworkProfile profile;
  profile.kind = net::NetworkKind::kDsl;
  profile.name = "zero-delay";
  // Fast enough that a full MTU serializes in under one nanosecond tick:
  // delivery, ACK, and RTT sample all land in the sending instant.
  profile.uplink = DataRate::bits_per_second(100'000'000'000'000ULL);
  profile.downlink = DataRate::bits_per_second(100'000'000'000'000ULL);
  profile.min_rtt = SimDuration::zero();
  profile.loss_rate = 0.0;
  profile.queue_delay = milliseconds(1);
  profile.validate();
  return profile;
}

TortureReport run_torture(const TortureOptions& options, std::ostream* progress) {
  const bool small = options.grid == TortureGrid::kSmall;
  const auto catalog = web::study_catalog(options.seed);

  std::vector<const web::Website*> sites;
  if (small) {
    for (const std::size_t index : {std::size_t{0}, std::size_t{9}, std::size_t{19},
                                    std::size_t{29}}) {
      sites.push_back(&catalog.at(index));
    }
  } else {
    for (const auto& site : catalog) sites.push_back(&site);
  }

  std::vector<const core::ProtocolConfig*> protocols;
  if (small) {
    // One representative per stack; the full grid covers every Table-1 row.
    protocols = {&core::protocol_by_name("TCP"), &core::protocol_by_name("QUIC")};
  } else {
    for (const auto& protocol : core::paper_protocols()) protocols.push_back(&protocol);
    protocols.push_back(&core::http1_baseline_protocol());
  }

  std::vector<TortureScenario> scenarios;
  const auto append = [&scenarios](std::vector<TortureScenario> more) {
    for (auto& scenario : more) scenarios.push_back(std::move(scenario));
  };
  if (small) {
    append(torture_scenarios(net::dsl_profile()));
    append(torture_scenarios(net::mss_profile()));
  } else {
    for (const auto& base : net::all_profiles()) append(torture_scenarios(base));
  }
  scenarios.push_back(TortureScenario{"zero-delay", zero_delay_profile()});
  append(contention_scenarios(net::dsl_profile()));
  // Variable-rate/policing cells run in both grids: the serialization
  // re-derivation and policer accounting are new enough to earn small-grid
  // coverage on the paper's cellular profile.
  append(schedule_scenarios(net::lte_profile()));
  if (!small) {
    append(contention_scenarios(net::lte_profile()));
    append(schedule_scenarios(net::dsl_profile()));
  }

  TortureReport report;
  HandlerGuard handler_guard;
  // The campaigns' own kernel, reused across the grid exactly as campaign
  // workers reuse it (Simulator::reset between trials included).
  core::TrialContext context;
  for (const auto& scenario : scenarios) {
    for (const auto* protocol : protocols) {
      const std::uint64_t violations_before_row = report.check_violations;
      const std::uint64_t hung_before_row = report.hung_trials;
      for (const auto* site : sites) {
        const std::string label = scenario.profile.name + "|" + scenario.name + "|" +
                                  protocol->name + "|" + site->name;
        const std::uint64_t seed =
            fnv1a(label) ^ (options.seed * 0x9E3779B97F4A7C15ULL);
        ++report.trials;
        g_violations = 0;
        try {
          const browser::PageLoadResult result =
              context.run(core::TrialSpec(*site, *protocol, scenario.profile, seed)
                              .with_contention(scenario.contention)
                              .with_max_events(options.max_events_per_trial)
                              .with_time_cap(kTortureTimeCap));
          if (g_violations != 0) {
            report.check_violations += g_violations;
            add_failure(report, options.max_failures_reported,
                        label + ": " + std::to_string(g_violations) + " CHECK violation(s)");
          }
          if (result.stop == browser::StopReason::kEventBudget ||
              result.stop == browser::StopReason::kDeadlock) {
            ++report.hung_trials;
            const bool deadlocked = result.stop == browser::StopReason::kDeadlock;
            if (deadlocked) ++report.deadlocks;
            add_failure(report, options.max_failures_reported,
                        label + (deadlocked ? ": DEADLOCK (empty event queue, page unfinished)"
                                            : ": HUNG (event budget exhausted)"));
          } else if (result.stop == browser::StopReason::kTimeCap) {
            ++report.incomplete_pages;
          }
          for (const auto& object : site->objects) {
            const std::uint64_t delivered = result.object_body_delivered[object.id];
            const bool complete = result.object_complete_at[object.id] != kNoTime;
            if (delivered > object.bytes || (complete && delivered != object.bytes)) {
              ++report.conservation_failures;
              add_failure(report, options.max_failures_reported,
                          label + ": object " + std::to_string(object.id) + " delivered " +
                              std::to_string(delivered) + " of " +
                              std::to_string(object.bytes) + " bytes" +
                              (complete ? " (complete)" : ""));
            }
          }
        } catch (const std::exception& e) {
          report.check_violations += g_violations;
          ++report.exceptions;
          add_failure(report, options.max_failures_reported, label + ": exception: " + e.what());
        }
      }
      if (progress != nullptr) {
        *progress << "torture: " << scenario.profile.name << " x " << protocol->name << " x "
                  << sites.size() << " sites";
        if (report.check_violations != violations_before_row ||
            report.hung_trials != hung_before_row) {
          *progress << "  [FAILURES]";
        }
        *progress << "\n";
      }
    }
  }
  return report;
}

}  // namespace qperc::runner
