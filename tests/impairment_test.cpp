// Unit tests for the link impairment layer (net/impairments.hpp): profile
// validation, Gilbert–Elliott bursts, outage windows, reordering jitter,
// duplication, and the bit-exactness contract for impairment-free profiles.
// Also covers the time-varying-capacity layer (net/rate_schedule.hpp): step
// schedules, synthetic LTE/Wi-Fi traces, their composition with the other
// impairments, byte conservation against the schedule's capacity integral,
// the token-bucket policer, and BBR's long-term-bandwidth response to it.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "net/impairments.hpp"
#include "net/link.hpp"
#include "net/profile.hpp"
#include "net/rate_schedule.hpp"
#include "sim/simulator.hpp"
#include "tcp/config.hpp"
#include "trace/memory_sink.hpp"
#include "transport_test_util.hpp"
#include "util/rng.hpp"

namespace qperc::net {
namespace {

Packet make_packet(std::uint32_t bytes, std::uint64_t flow = 1) {
  Packet packet;
  packet.flow = FlowId{flow};
  packet.dest_server = ServerId{0};
  packet.wire_bytes = bytes;
  return packet;
}

/// Sends `count` numbered packets through a link with the given impairments
/// and returns (flow id, delivery time) pairs in delivery order.
struct ImpairedRun {
  std::vector<std::uint64_t> order;
  std::vector<SimTime> times;
  LinkStats stats;
};

ImpairedRun run_impaired(const LinkImpairments& impairments, int count,
                         double loss_rate = 0.0, std::uint64_t seed = 1) {
  sim::Simulator simulator;
  ImpairedRun run;
  Link link(simulator, DataRate::megabits_per_second(8.0), milliseconds(5), loss_rate,
            /*queue_capacity_bytes=*/10'000'000, Rng(seed), [&](Packet p) {
              run.order.push_back(static_cast<std::uint64_t>(p.flow));
              run.times.push_back(simulator.now());
            });
  link.set_impairments(impairments);
  for (int i = 0; i < count; ++i) link.send(make_packet(1000, 100 + i));
  simulator.run();
  run.stats = link.stats();
  return run;
}

// ---------------------------------------------------------------- validation

TEST(ImpairmentValidation, DefaultConfigurationIsValidAndOff) {
  const LinkImpairments impairments;
  EXPECT_FALSE(impairments.any());
  EXPECT_NO_THROW(impairments.validate());
}

TEST(ImpairmentValidation, RejectsOutOfRangeProbabilities) {
  for (double bad : {-0.1, 1.5}) {
    LinkImpairments imp;
    imp.reorder_rate = bad;
    EXPECT_THROW(imp.validate(), std::invalid_argument) << bad;
    imp = LinkImpairments{};
    imp.duplicate_rate = bad;
    EXPECT_THROW(imp.validate(), std::invalid_argument) << bad;
    imp = LinkImpairments{};
    imp.gilbert_elliott.enter_bad = bad;
    EXPECT_THROW(imp.validate(), std::invalid_argument) << bad;
    imp = LinkImpairments{};
    imp.gilbert_elliott.enter_bad = 0.1;
    imp.gilbert_elliott.exit_bad = 0.5;
    imp.gilbert_elliott.loss_bad = bad;
    EXPECT_THROW(imp.validate(), std::invalid_argument) << bad;
  }
}

TEST(ImpairmentValidation, RejectsInvertedOrMissingJitterWindow) {
  LinkImpairments imp;
  imp.reorder_rate = 0.2;
  // Enabled reordering with a zero-width window is a configuration error.
  EXPECT_THROW(imp.validate(), std::invalid_argument);
  imp.reorder_delay_min = milliseconds(10);
  imp.reorder_delay_max = milliseconds(5);
  EXPECT_THROW(imp.validate(), std::invalid_argument);
  imp.reorder_delay_max = milliseconds(20);
  EXPECT_NO_THROW(imp.validate());
}

TEST(ImpairmentValidation, RejectsInescapableBadState) {
  LinkImpairments imp;
  imp.gilbert_elliott.enter_bad = 0.1;
  imp.gilbert_elliott.exit_bad = 0.0;
  EXPECT_THROW(imp.validate(), std::invalid_argument);
}

TEST(ImpairmentValidation, RejectsFlapIntervalShorterThanOutage) {
  LinkImpairments imp;
  imp.outage_start = SimTime{seconds(1)};
  imp.outage_duration = milliseconds(500);
  imp.outage_interval = milliseconds(400);
  EXPECT_THROW(imp.validate(), std::invalid_argument);
  imp.outage_interval = milliseconds(600);
  EXPECT_NO_THROW(imp.validate());
}

TEST(ProfileValidation, AcceptsAllBuiltinProfiles) {
  for (const auto& profile : all_profiles()) EXPECT_NO_THROW(profile.validate());
}

TEST(ProfileValidation, RejectsZeroBandwidth) {
  NetworkProfile profile = dsl_profile();
  profile.uplink = DataRate::bits_per_second(0);
  EXPECT_THROW(profile.validate(), std::invalid_argument);
  profile = dsl_profile();
  profile.downlink = DataRate::bits_per_second(0);
  EXPECT_THROW(profile.validate(), std::invalid_argument);
}

TEST(ProfileValidation, RejectsOutOfRangeLoss) {
  NetworkProfile profile = dsl_profile();
  profile.loss_rate = -0.01;
  EXPECT_THROW(profile.validate(), std::invalid_argument);
  profile.loss_rate = 1.01;
  EXPECT_THROW(profile.validate(), std::invalid_argument);
}

TEST(ProfileValidation, RejectsNegativeRttAndZeroQueue) {
  NetworkProfile profile = dsl_profile();
  profile.min_rtt = -milliseconds(1);
  EXPECT_THROW(profile.validate(), std::invalid_argument);
  profile = dsl_profile();
  profile.queue_delay = SimDuration::zero();
  EXPECT_THROW(profile.validate(), std::invalid_argument);
}

TEST(ProfileValidation, MessageNamesTheProfileAndField) {
  NetworkProfile profile = dsl_profile();
  profile.loss_rate = -1.0;
  try {
    profile.validate();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(profile.name), std::string::npos) << what;
    EXPECT_NE(what.find("loss_rate"), std::string::npos) << what;
  }
}

TEST(ProfileValidation, RejectsInvalidImpairments) {
  NetworkProfile profile = dsl_profile();
  profile.impairments.duplicate_rate = 2.0;
  EXPECT_THROW(profile.validate(), std::invalid_argument);
}

// ---------------------------------------------------------------- behavior

TEST(Impairments, DisabledImpairmentsAreBitExactWithBaseline) {
  // Same seed, same lossy link, one with an explicitly installed (but fully
  // disabled) impairment config: the RNG streams — and therefore every
  // delivery time — must match exactly.
  sim::Simulator baseline_sim;
  std::vector<SimTime> baseline;
  Link baseline_link(baseline_sim, DataRate::megabits_per_second(4.0), milliseconds(7),
                     0.2, 1'000'000, Rng(42),
                     [&](Packet) { baseline.push_back(baseline_sim.now()); });
  for (int i = 0; i < 200; ++i) baseline_link.send(make_packet(1200));
  baseline_sim.run();

  sim::Simulator impaired_sim;
  std::vector<SimTime> impaired;
  Link impaired_link(impaired_sim, DataRate::megabits_per_second(4.0), milliseconds(7),
                     0.2, 1'000'000, Rng(42),
                     [&](Packet) { impaired.push_back(impaired_sim.now()); });
  impaired_link.set_impairments(LinkImpairments{});
  for (int i = 0; i < 200; ++i) impaired_link.send(make_packet(1200));
  impaired_sim.run();

  EXPECT_EQ(baseline, impaired);
  EXPECT_EQ(baseline_link.stats().drops_random_loss, impaired_link.stats().drops_random_loss);
}

TEST(Impairments, ReorderingDeliversOutOfOrderButComplete) {
  LinkImpairments imp;
  imp.reorder_rate = 0.5;
  imp.reorder_delay_min = milliseconds(2);
  imp.reorder_delay_max = milliseconds(30);
  const ImpairedRun run = run_impaired(imp, 100);
  ASSERT_EQ(run.order.size(), 100u);  // nothing lost, nothing duplicated
  EXPECT_GT(run.stats.reordered, 0u);
  // At least one packet overtook a lower-numbered one.
  bool out_of_order = false;
  for (std::size_t i = 1; i < run.order.size(); ++i) {
    if (run.order[i] < run.order[i - 1]) out_of_order = true;
  }
  EXPECT_TRUE(out_of_order);
}

TEST(Impairments, DuplicationDeliversEveryPacketExactlyTwice) {
  LinkImpairments imp;
  imp.duplicate_rate = 1.0;
  const ImpairedRun run = run_impaired(imp, 50);
  EXPECT_EQ(run.order.size(), 100u);
  EXPECT_EQ(run.stats.duplicates, 50u);
  EXPECT_EQ(run.stats.packets_delivered, 100u);
  // With no jitter window the copy trails its original immediately.
  for (std::size_t i = 0; i < run.order.size(); i += 2) {
    EXPECT_EQ(run.order[i], run.order[i + 1]);
  }
}

TEST(Impairments, GilbertElliottProducesCorrelatedBursts) {
  LinkImpairments imp;
  imp.gilbert_elliott =
      GilbertElliott{.enter_bad = 0.05, .exit_bad = 0.2, .loss_good = 0.0, .loss_bad = 1.0};
  const ImpairedRun run = run_impaired(imp, 2000);
  EXPECT_GT(run.stats.drops_burst_loss, 0u);
  EXPECT_EQ(run.stats.drops_random_loss, 0u);
  EXPECT_EQ(run.order.size() + run.stats.drops_burst_loss, 2000u);
  // loss_bad = 1 means every loss sits inside a bad-state burst; with
  // enter=0.05/exit=0.2 the expected bad-state fraction is 20%, so losses
  // must be a substantial minority — and bursty, not isolated: at least one
  // run of consecutive flow-id gaps longer than 1.
  EXPECT_GT(run.stats.drops_burst_loss, 100u);
  EXPECT_LT(run.stats.drops_burst_loss, 1000u);
  bool burst_of_two = false;
  for (std::size_t i = 1; i < run.order.size(); ++i) {
    if (run.order[i] >= run.order[i - 1] + 3) burst_of_two = true;  // >= 2 lost in a row
  }
  EXPECT_TRUE(burst_of_two);
}

TEST(Impairments, OneShotOutageDropsOnlyInsideWindow) {
  LinkImpairments imp;
  imp.outage_start = SimTime{milliseconds(20)};
  imp.outage_duration = milliseconds(10);

  sim::Simulator simulator;
  std::vector<SimTime> deliveries;
  Link link(simulator, DataRate::megabits_per_second(80.0), SimDuration::zero(), 0.0,
            10'000'000, Rng(1), [&](Packet) { deliveries.push_back(simulator.now()); });
  link.set_impairments(imp);
  // One 1000-byte packet every millisecond for 50 ms; serialization is
  // 0.1 ms, so each packet clears the loss stage just after its send time.
  for (int i = 0; i < 50; ++i) {
    simulator.schedule_at(SimTime{milliseconds(i)}, [&link] { link.send(make_packet(1000)); });
  }
  simulator.run();
  EXPECT_EQ(link.stats().drops_outage, 10u);  // sends at 20..29 ms
  EXPECT_EQ(deliveries.size(), 40u);
}

TEST(Impairments, PeriodicFlapsRepeatTheOutage) {
  LinkImpairments imp;
  imp.outage_start = SimTime{milliseconds(10)};
  imp.outage_duration = milliseconds(5);
  imp.outage_interval = milliseconds(20);  // down at [10,15), [30,35), [50,55) ...
  EXPECT_FALSE(imp.in_outage(SimTime{milliseconds(9)}));
  EXPECT_TRUE(imp.in_outage(SimTime{milliseconds(10)}));
  EXPECT_TRUE(imp.in_outage(SimTime{milliseconds(14)}));
  EXPECT_FALSE(imp.in_outage(SimTime{milliseconds(15)}));
  EXPECT_TRUE(imp.in_outage(SimTime{milliseconds(31)}));
  EXPECT_FALSE(imp.in_outage(SimTime{milliseconds(45)}));
  EXPECT_TRUE(imp.in_outage(SimTime{milliseconds(52)}));
}

TEST(Impairments, ImpairedRunsAreDeterministicInTheSeed) {
  LinkImpairments imp;
  imp.reorder_rate = 0.3;
  imp.reorder_delay_min = milliseconds(1);
  imp.reorder_delay_max = milliseconds(25);
  imp.duplicate_rate = 0.2;
  imp.gilbert_elliott =
      GilbertElliott{.enter_bad = 0.02, .exit_bad = 0.3, .loss_good = 0.0, .loss_bad = 0.6};
  const ImpairedRun a = run_impaired(imp, 500, 0.01, 7);
  const ImpairedRun b = run_impaired(imp, 500, 0.01, 7);
  EXPECT_EQ(a.order, b.order);
  EXPECT_EQ(a.times, b.times);
  const ImpairedRun c = run_impaired(imp, 500, 0.01, 8);
  EXPECT_NE(a.times, c.times);  // a different seed must actually change draws
}

// ---------------------------------------------------------------- schedules

TEST(RateScheduleValidation, RejectsMalformedStepLists) {
  EXPECT_THROW(RateSchedule::steps(nullptr, 0).validate(), std::invalid_argument);

  // First step must define the rate from t=0.
  RateStep late[] = {{milliseconds(5), DataRate::megabits_per_second(1.0)}};
  EXPECT_THROW(RateSchedule::steps(late, 1).validate(), std::invalid_argument);

  RateStep zero_rate[] = {{SimDuration::zero(), DataRate{}}};
  EXPECT_THROW(RateSchedule::steps(zero_rate, 1).validate(), std::invalid_argument);

  RateStep unordered[] = {{SimDuration::zero(), DataRate::megabits_per_second(8.0)},
                          {milliseconds(10), DataRate::megabits_per_second(1.0)},
                          {milliseconds(10), DataRate::megabits_per_second(2.0)}};
  EXPECT_THROW(RateSchedule::steps(unordered, 3).validate(), std::invalid_argument);

  RateStep good[] = {{SimDuration::zero(), DataRate::megabits_per_second(8.0)},
                     {milliseconds(10), DataRate::megabits_per_second(1.0)}};
  EXPECT_NO_THROW(RateSchedule::steps(good, 2).validate());
  EXPECT_THROW(RateSchedule::lte_trace(DataRate{}, 1).validate(), std::invalid_argument);
}

TEST(RateSchedule, TraceGeneratorsAreDeterministicSeededAndFloored) {
  const DataRate base = DataRate::megabits_per_second(10.0);
  for (auto make : {&RateSchedule::lte_trace, &RateSchedule::wifi_trace}) {
    const RateSchedule a = make(base, 7);
    const RateSchedule b = make(base, 7);
    const RateSchedule c = make(base, 8);
    bool seed_changes_something = false;
    bool rate_varies = false;
    const DataRate first = a.rate_at(SimTime{0});
    for (int ms = 0; ms < 5000; ms += 25) {
      const SimTime t{milliseconds(ms)};
      EXPECT_EQ(a.rate_at(t).bps(), b.rate_at(t).bps());  // pure function of seed
      EXPECT_GE(a.rate_at(t).bps(), RateSchedule::kMinRateBps);
      if (a.rate_at(t).bps() != c.rate_at(t).bps()) seed_changes_something = true;
      if (a.rate_at(t).bps() != first.bps()) rate_varies = true;
    }
    EXPECT_TRUE(seed_changes_something);
    EXPECT_TRUE(rate_varies);
  }
}

/// Delivery times of `count` kilobyte packets offered to a lossless
/// zero-propagation link running `schedule` with a droptail queue of
/// `queue_bytes`; packet i is offered at i × `spacing`. An optional window
/// attaches a trace sink at `attach_at` and detaches it at `detach_at`.
std::vector<SimTime> scheduled_deliveries(const RateSchedule& schedule, int count,
                                          std::uint64_t queue_bytes = 10'000'000,
                                          SimDuration spacing = SimDuration::zero(),
                                          SimTime attach_at = kNoTime,
                                          SimTime detach_at = kNoTime) {
  sim::Simulator simulator;
  trace::MemorySink sink;
  std::vector<SimTime> times;
  Link link(simulator, DataRate::bytes_per_second(1'000'000), SimDuration::zero(), 0.0,
            queue_bytes, Rng(1), [&](Packet) { times.push_back(simulator.now()); });
  link.set_schedule(schedule);
  if (attach_at != kNoTime) {
    simulator.schedule_at(attach_at, [&] { simulator.set_trace(&sink); });
  }
  if (detach_at != kNoTime) {
    simulator.schedule_at(detach_at, [&] { simulator.set_trace(nullptr); });
  }
  // Offers are scheduled up front, so an offer landing on the instant a
  // serialization ends runs before anything the link scheduled itself.
  for (int i = 0; i < count; ++i) {
    simulator.schedule_at(SimTime{spacing * i},
                          [&link, i] { link.send(make_packet(1000, 100 + i)); });
  }
  simulator.run();
  return times;
}

TEST(Schedules, StepScheduleRetimesTheBacklogAtTheBreakpoint) {
  // 1 MB/s until t=5 ms, then 100 kB/s: the first five 1000-byte packets
  // serialize in 1 ms each, the rest in 10 ms each — the rate step lands
  // exactly between packets, so every completion time is exact.
  RateStep steps[] = {{SimDuration::zero(), DataRate::bytes_per_second(1'000'000)},
                      {milliseconds(5), DataRate::bytes_per_second(100'000)}};
  const auto times = scheduled_deliveries(RateSchedule::steps(steps, 2), 8);
  ASSERT_EQ(times.size(), 8u);
  const SimTime expected[] = {SimTime{milliseconds(1)},  SimTime{milliseconds(2)},
                              SimTime{milliseconds(3)},  SimTime{milliseconds(4)},
                              SimTime{milliseconds(5)},  SimTime{milliseconds(15)},
                              SimTime{milliseconds(25)}, SimTime{milliseconds(35)}};
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_NEAR(static_cast<double>(times[i].count()),
                static_cast<double>(expected[i].count()), 100.0)
        << i;
  }
}

TEST(Schedules, MidPacketStepIntegratesByteAccurately) {
  // The step lands at t=4.5 ms, halfway through the fifth packet: 500 bytes
  // serialized at 1 MB/s, the remaining 500 at 100 kB/s (5 ms more). A
  // whole-packet approximation would finish it at 5 ms or 10 ms instead.
  RateStep steps[] = {{SimDuration::zero(), DataRate::bytes_per_second(1'000'000)},
                      {microseconds(4500), DataRate::bytes_per_second(100'000)}};
  const auto times = scheduled_deliveries(RateSchedule::steps(steps, 2), 6);
  ASSERT_EQ(times.size(), 6u);
  EXPECT_NEAR(static_cast<double>(times[4].count()),
              static_cast<double>(SimTime{microseconds(9500)}.count()), 100.0);
  EXPECT_NEAR(static_cast<double>(times[5].count()),
              static_cast<double>(SimTime{microseconds(19500)}.count()), 100.0);
}

TEST(Schedules, ObserverAttachDetachKeepsDeliveryTimes) {
  // Attaching or detaching a trace sink mid-backlog must not move a single
  // delivery, with a schedule retiming the backlog and with a droptail queue
  // that only holds the packet in service, where every admission decision
  // at a serialization boundary is visible in the output.
  RateStep steps[] = {{SimDuration::zero(), DataRate::bytes_per_second(1'000'000)},
                      {microseconds(3500), DataRate::bytes_per_second(125'000)},
                      {milliseconds(40), DataRate::bytes_per_second(500'000)}};
  const RateSchedule schedule = RateSchedule::steps(steps, 3);
  const SimTime attach{milliseconds(2)};
  const SimTime detach{milliseconds(30)};
  const std::uint64_t big = 10'000'000;
  const auto baseline = scheduled_deliveries(schedule, 12);
  EXPECT_EQ(baseline, scheduled_deliveries(schedule, 12, big, {}, SimTime{0}));
  EXPECT_EQ(baseline, scheduled_deliveries(schedule, 12, big, {}, attach, detach));

  // One 1000-byte packet per millisecond into a one-packet queue: offers
  // coincide with serialization ends for the first 3 ms, then the step to
  // 125 kB/s overflows the queue and only 12 of the 48 packets get through.
  const auto tight = scheduled_deliveries(schedule, 48, 1000, milliseconds(1));
  EXPECT_EQ(tight.size(), 12u);
  EXPECT_EQ(tight, scheduled_deliveries(schedule, 48, 1000, milliseconds(1), SimTime{0}));
  EXPECT_EQ(tight,
            scheduled_deliveries(schedule, 48, 1000, milliseconds(1), attach, detach));
}

TEST(Schedules, ScheduleLeavesTheLossRngStreamUntouched) {
  // Enabling a schedule changes *when* packets clear the serializer but must
  // not consume or reorder loss-RNG draws: the same packets live and die.
  auto run = [](const RateSchedule& schedule) {
    sim::Simulator simulator;
    std::vector<std::uint64_t> delivered;
    Link link(simulator, DataRate::megabits_per_second(8.0), milliseconds(5), 0.25,
              10'000'000, Rng(42), [&](Packet p) {
                delivered.push_back(static_cast<std::uint64_t>(p.flow));
              });
    link.set_schedule(schedule);
    for (int i = 0; i < 300; ++i) link.send(make_packet(1000, 100 + i));
    simulator.run();
    std::sort(delivered.begin(), delivered.end());
    return std::pair{delivered, link.stats().drops_random_loss};
  };
  const auto [plain_survivors, plain_drops] = run(RateSchedule{});
  const auto [traced_survivors, traced_drops] =
      run(RateSchedule::lte_trace(DataRate::megabits_per_second(8.0), 9));
  EXPECT_EQ(plain_survivors, traced_survivors);
  EXPECT_EQ(plain_drops, traced_drops);
}

TEST(Schedules, ComposeWithGilbertElliottReorderingAndOutages) {
  LinkImpairments imp;
  imp.reorder_rate = 0.2;
  imp.reorder_delay_min = milliseconds(1);
  imp.reorder_delay_max = milliseconds(20);
  imp.duplicate_rate = 0.05;
  imp.gilbert_elliott =
      GilbertElliott{.enter_bad = 0.02, .exit_bad = 0.25, .loss_good = 0.0, .loss_bad = 0.8};
  imp.outage_start = SimTime{milliseconds(200)};
  imp.outage_duration = milliseconds(50);
  imp.outage_interval = milliseconds(400);

  auto run = [&imp](std::uint64_t seed) {
    sim::Simulator simulator;
    std::vector<SimTime> times;
    Link link(simulator, DataRate::megabits_per_second(4.0), milliseconds(10), 0.01,
              10'000'000, Rng(seed), [&](Packet) { times.push_back(simulator.now()); });
    link.set_impairments(imp);
    link.set_schedule(RateSchedule::lte_trace(DataRate::megabits_per_second(4.0), 5));
    for (int i = 0; i < 400; ++i) {
      simulator.schedule_at(SimTime{milliseconds(2 * i)},
                            [&link, i] { link.send(make_packet(1200, 100 + i)); });
    }
    simulator.run();
    return std::pair{times, link.stats()};
  };

  const auto [times, stats] = run(3);
  // Every impairment fired at least once on top of the varying rate ...
  EXPECT_GT(stats.drops_burst_loss, 0u);
  EXPECT_GT(stats.drops_outage, 0u);
  EXPECT_GT(stats.reordered, 0u);
  // ... and the per-packet accounting identity still closes exactly.
  EXPECT_EQ(stats.packets_delivered + stats.drops_random_loss + stats.drops_burst_loss +
                stats.drops_outage + stats.drops_queue_full + stats.drops_policer,
            stats.packets_offered + stats.duplicates);
  EXPECT_EQ(times, run(3).first);  // deterministic in the seed
  EXPECT_NE(times, run(4).first);
}

TEST(Schedules, ByteConservationHoldsForStepsAndTraces) {
  // Property: cumulative wire bytes delivered by any instant never exceed
  // the schedule's capacity integral to that instant (zero propagation, no
  // loss, no duplication — every serialized byte is delivered).
  RateStep cliff[] = {{SimDuration::zero(), DataRate::megabits_per_second(8.0)},
                      {seconds(1), DataRate::bytes_per_second(100'000)},
                      {seconds(3), DataRate::megabits_per_second(8.0)}};
  const RateSchedule schedules[] = {
      RateSchedule::steps(cliff, 3),
      RateSchedule::lte_trace(DataRate::megabits_per_second(8.0), 3),
      RateSchedule::wifi_trace(DataRate::megabits_per_second(8.0), 4),
  };
  for (const RateSchedule& schedule : schedules) {
    sim::Simulator simulator;
    double cumulative = 0.0;
    Link link(simulator, DataRate::megabits_per_second(8.0), SimDuration::zero(), 0.0,
              50'000'000, Rng(1), [&](Packet p) {
                cumulative += static_cast<double>(p.wire_bytes);
                // One-MTU slack absorbs the double-rounding of the piecewise
                // integration; anything larger means capacity was invented.
                EXPECT_LE(cumulative, schedule.bytes_through(simulator.now()) + 1500.0)
                    << to_string(schedule.kind());
              });
    link.set_schedule(schedule);
    for (int i = 0; i < 2000; ++i) link.send(make_packet(1500, 100 + i));
    simulator.run();
    EXPECT_EQ(link.stats().bytes_delivered, 2000u * 1500u);  // nothing vanished
  }
}

// ---------------------------------------------------------------- policing

TEST(Policer, DropsExcessTrafficAndConservesBytes) {
  LinkImpairments imp;
  imp.policer_rate = DataRate::bytes_per_second(100'000);
  imp.policer_burst_bytes = 4000;

  sim::Simulator simulator;
  std::uint64_t delivered_bytes = 0;
  SimTime last_delivery{0};
  Link link(simulator, DataRate::bytes_per_second(1'000'000), SimDuration::zero(), 0.0,
            10'000'000, Rng(1), [&](Packet p) {
              delivered_bytes += p.wire_bytes;
              last_delivery = simulator.now();
            });
  link.set_impairments(imp);
  for (int i = 0; i < 50; ++i) link.send(make_packet(1000, 100 + i));
  simulator.run();

  const LinkStats& stats = link.stats();
  EXPECT_GT(stats.drops_policer, 0u);
  EXPECT_EQ(stats.packets_delivered + stats.drops_policer, 50u);
  // Token-bucket conservation: burst allowance plus rate * elapsed bounds
  // everything the policer let through.
  const double budget = 4000.0 + 100'000.0 * to_seconds(last_delivery) + 1.0;
  EXPECT_LE(static_cast<double>(delivered_bytes), budget);
  // The policer draws no randomness, so reruns are bit-identical by
  // construction; spot-check stats stability across a second run.
  sim::Simulator again;
  Link link2(again, DataRate::bytes_per_second(1'000'000), SimDuration::zero(), 0.0,
             10'000'000, Rng(1), [](Packet) {});
  link2.set_impairments(imp);
  for (int i = 0; i < 50; ++i) link2.send(make_packet(1000, 100 + i));
  again.run();
  EXPECT_EQ(link2.stats().drops_policer, stats.drops_policer);
}

/// One BBR bulk transfer through a DSL line policed to 1 Mbit/s with a
/// 2 kB bucket (~1.3 packets): goodput and retransmission count.
struct PolicedRun {
  double goodput_bps = 0.0;
  std::uint64_t retransmissions = 0;
};

PolicedRun policed_bbr_run(bool lt_bw) {
  NetworkProfile profile = dsl_profile();
  profile.impairments.policer_rate = DataRate::megabits_per_second(1.0);
  profile.impairments.policer_burst_bytes = 2'000;
  tcp::TcpConfig config;
  config.congestion_control = cc::CcKind::kBbr;
  config.bbr_lt_bw = lt_bw;
  config.pacing = true;
  config.tuned_buffers = true;
  config.initial_window_segments = 32;
  testutil::TcpHarness harness(profile, config, 6'250'000, 11);
  harness.run(seconds(70));
  const SimTime end =
      harness.finished_at != kNoTime ? harness.finished_at : harness.simulator.now();
  const double elapsed = to_seconds(end - harness.established_at);
  return {static_cast<double>(harness.delivered) * 8.0 / elapsed,
          harness.connection->stats().retransmissions};
}

TEST(Policer, LtBwBbrSustainsPolicedRateWhereStockWastesTheLink) {
  // The pathology lt_bw exists for (tcp-bbrplus, Linux tcp_bbr.c): a policer
  // drops without queueing, so BBR's startup fills the bandwidth filter with
  // the pre-policer line rate and the model keeps pacing far above the
  // policed budget, drowning the token bucket in drops. The long-term
  // estimator detects the consistent loss-bounded delivery rate and paces at
  // it instead. Note on the metric: with RACK/SACK recovery (hardened by
  // this repo's spurious-RTO and handshake fixes) every token the policer
  // grants carries a useful byte eventually, so stock's *goodput* stays
  // token-bound rather than collapsing -- the collapse shows up as the
  // upstream path drowning in retransmissions (the multi-x retransmit waste
  // measured behind production policers). The acceptance contrast is
  // therefore asserted as: lt_bw sustains >= 80% of the policed rate while
  // cutting stock BBR's retransmit waste by more than half.
  const double policed = 1e6;
  const PolicedRun with_lt = policed_bbr_run(true);
  const PolicedRun stock = policed_bbr_run(false);
  EXPECT_GE(with_lt.goodput_bps, 0.8 * policed);
  EXPECT_GE(stock.retransmissions, 2 * with_lt.retransmissions);
}

TEST(Policer, TightBucketTcpHandshakeStillEstablishes) {
  // Regression: the TLS server flight (3 packets, ~4.4 kB) is larger than a
  // 3 kB policer bucket, so no retry could ever deliver the whole flight at
  // once. Before selective flight retransmission (the ClientHello's
  // flight_have_mask), the client reset its reassembly mask on every retry
  // and the server always resent all three pieces -- the head packets
  // consumed the tokens the tail needed, and the handshake livelocked.
  NetworkProfile profile = dsl_profile();
  profile.impairments.policer_rate = DataRate::kilobits_per_second(500);
  profile.impairments.policer_burst_bytes = 3'000;
  tcp::TcpConfig config;
  config.congestion_control = cc::CcKind::kBbr;
  testutil::TcpHarness harness(profile, config, 30'000, 3);
  EXPECT_TRUE(harness.run(seconds(30)));
  EXPECT_NE(harness.established_at, kNoTime);
  EXPECT_LE(harness.established_at, SimTime{seconds(5)});
}

TEST(Policer, TightBucketQuicHandshakeStillEstablishes) {
  // Same livelock on the QUIC side: the two-packet REJ flight (2 x 1392 B)
  // exceeds a 2 kB bucket, so the server must honor the retried CHLO's
  // have-mask and resend only the missing piece.
  NetworkProfile profile = dsl_profile();
  profile.impairments.policer_rate = DataRate::kilobits_per_second(500);
  profile.impairments.policer_burst_bytes = 2'000;
  quic::QuicConfig config;
  config.zero_rtt = false;
  testutil::QuicHarness harness(profile, config, 20'000, 3);
  EXPECT_TRUE(harness.run(1, seconds(30)));
  EXPECT_NE(harness.established_at, kNoTime);
  EXPECT_LE(harness.established_at, SimTime{seconds(5)});
}

}  // namespace
}  // namespace qperc::net
