// The fairness grid's contracts:
//
//   * determinism — cell results are byte-identical across --jobs, across
//     shard splits merged in any order, and across kill/resume cycles,
//   * Jain's index — the batch helper honors the index's defining
//     properties,
//   * compatibility — a flows=0 cell reproduces the legacy single-connection
//     topology draw for draw,
//   * robustness — the reordering+contention torture cell stays live and
//     deterministic.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/protocol.hpp"
#include "core/trial.hpp"
#include "core/trial_context.hpp"
#include "net/contention.hpp"
#include "net/profile.hpp"
#include "runner/fairness.hpp"
#include "runner/torture.hpp"
#include "stats/stats.hpp"
#include "util/durable_file.hpp"
#include "util/rng.hpp"
#include "web/website.hpp"

namespace qperc {
namespace {

// --- Jain's fairness index ---------------------------------------------------

TEST(JainIndex, EqualSharesAreMaximallyFair) {
  const std::vector<double> xs(7, 3.25);
  EXPECT_DOUBLE_EQ(stats::jain_fairness_index(xs), 1.0);
}

TEST(JainIndex, SingleFlowAndDegenerateInputsAreFair) {
  EXPECT_DOUBLE_EQ(stats::jain_fairness_index(std::vector<double>{42.0}), 1.0);
  EXPECT_DOUBLE_EQ(stats::jain_fairness_index(std::vector<double>{}), 1.0);
  EXPECT_DOUBLE_EQ(stats::jain_fairness_index(std::vector<double>{0.0, 0.0}), 1.0);
}

TEST(JainIndex, OneHogAmongNFlowsScoresOneOverN) {
  const std::vector<double> xs{10.0, 0.0, 0.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(stats::jain_fairness_index(xs), 1.0 / 5.0);
}

TEST(JainIndex, ScaleInvariantAndBounded) {
  Rng rng(11);
  std::vector<double> xs;
  std::vector<double> scaled;
  for (int i = 0; i < 64; ++i) {
    const double x = rng.exponential(3.0);
    xs.push_back(x);
    scaled.push_back(x * 1e6);
  }
  const double index = stats::jain_fairness_index(xs);
  EXPECT_GE(index, 1.0 / 64.0);
  EXPECT_LE(index, 1.0);
  EXPECT_NEAR(stats::jain_fairness_index(scaled), index, 1e-12);
}

TEST(JainIndex, NegativeInputsClampToZero) {
  EXPECT_DOUBLE_EQ(stats::jain_fairness_index(std::vector<double>{5.0, -5.0}),
                   stats::jain_fairness_index(std::vector<double>{5.0, 0.0}));
}

// --- record / store round-trips ---------------------------------------------

runner::FairnessCell sample_cell() {
  runner::FairnessCell cell;
  cell.grid_index = 17;
  cell.site = "apache.org";
  cell.protocol = "QUIC";
  cell.network = net::NetworkKind::kLte;
  cell.flows = 3;
  cell.mix = net::CrossMix::kMixed;
  cell.stagger = milliseconds(250);
  cell.runs = 5;
  cell.pages_finished = 4;
  cell.mean_fvc_ms = 123.0625;
  cell.mean_lvc_ms = 1234.5;
  cell.mean_plt_ms = 2345.675;
  cell.mean_vc85_ms = 999.25;
  cell.mean_si_ms = 456.125;
  cell.mean_page_retransmissions = 17.2;
  cell.jain_index = 0.87365819241;
  cell.mean_queue_peak_frac = 0.998;
  cell.mean_queue_drops = 1283.6;
  cell.flow_goodput_bps = {1.5e6, 2.25e6, 0.4e6};
  return cell;
}

std::string record_line(const runner::FairnessCell& cell) {
  std::ostringstream os;
  runner::FairnessCodec::write(os, cell);
  return os.str();
}

TEST(FairnessRecord, RoundTripsByteExactly) {
  const runner::FairnessCell cell = sample_cell();
  const std::string line = record_line(cell);

  std::istringstream is(line);
  runner::FairnessCell parsed;
  ASSERT_TRUE(runner::FairnessCodec::read(is, parsed));
  EXPECT_EQ(record_line(parsed), line);
  EXPECT_EQ(parsed.site, cell.site);
  EXPECT_EQ(parsed.flows, cell.flows);
  EXPECT_EQ(parsed.mix, cell.mix);
  EXPECT_EQ(parsed.stagger, cell.stagger);
  ASSERT_EQ(parsed.flow_goodput_bps.size(), cell.flow_goodput_bps.size());
  EXPECT_EQ(parsed.flow_goodput_bps[2], cell.flow_goodput_bps[2]);
}

TEST(FairnessRecord, RejectsMalformedLines) {
  runner::FairnessCell cell;
  std::istringstream truncated("cell 1 apache.org QUIC 0 2");
  EXPECT_FALSE(runner::FairnessCodec::read(truncated, cell));
  std::istringstream bad_mix(
      "cell 1 apache.org QUIC 0 2 warp 0 1 1 1 1 1 1 1 1 1 1 1 0");
  EXPECT_FALSE(runner::FairnessCodec::read(bad_mix, cell));
}

TEST(FairnessStore, LoadRejectsMismatchedFingerprint) {
  const std::string path = testing::TempDir() + "fairness_fp.qfr";
  runner::FairnessStore writer(path, 7, 5, 1111);
  writer.put(sample_cell());
  writer.checkpoint();

  runner::FairnessStore same(path, 7, 5, 1111);
  EXPECT_TRUE(same.load());
  EXPECT_EQ(same.size(), 1u);

  runner::FairnessStore other(path, 7, 5, 2222);
  EXPECT_FALSE(other.load());
  EXPECT_EQ(other.size(), 0u);
  EXPECT_FALSE(other.absorb(path));
}

TEST(FairnessStore, RejectsCorruptTruncatedAndDuplicateFiles) {
  const std::string path = testing::TempDir() + "fairness_corrupt.qfr";
  runner::FairnessStore writer(path, 7, 5, 1111);
  runner::FairnessCell second = sample_cell();
  second.grid_index = 4;
  writer.put(sample_cell());
  writer.put(second);
  writer.checkpoint();
  const auto saved = read_durable(path, runner::FairnessStore::kMagic);
  ASSERT_TRUE(saved.has_value());
  std::string good;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    good = buffer.str();
  }

  const auto expect_rejected = [&](const std::string& contents) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << contents;
    }
    runner::FairnessStore reader(path, 7, 5, 1111);
    EXPECT_FALSE(reader.load());
    EXPECT_FALSE(reader.absorb(path));
    EXPECT_EQ(reader.size(), 0u);
  };
  // One digit of the first record changed to another digit.
  std::string corrupt = good;
  const auto digit = corrupt.find_first_of("0123456789", corrupt.find("\ncell") + 5);
  ASSERT_NE(digit, std::string::npos);
  corrupt[digit] = corrupt[digit] == '9' ? '8' : '9';
  expect_rejected(corrupt);
  // Cut mid-record, and cut just before the footer.
  expect_rejected(good.substr(0, good.size() / 2));
  expect_rejected(good.substr(0, good.rfind("checksum ")));

  // The same cell twice, under a valid checksum and a matching count.
  const std::string first = saved->payload.substr(0, saved->payload.find('\n') + 1);
  write_durable(path, saved->header, first + first);
  runner::FairnessStore reader(path, 7, 5, 1111);
  EXPECT_FALSE(reader.load());
  EXPECT_FALSE(reader.absorb(path));
  EXPECT_EQ(reader.size(), 0u);
}

// --- grid determinism --------------------------------------------------------

runner::FairnessSpec small_spec() {
  runner::FairnessSpec spec;
  spec.sites = {"apache.org", "wikipedia.org"};
  spec.protocols = {"QUIC"};
  spec.networks = {net::NetworkKind::kDsl};
  spec.flow_counts = {0, 2};
  spec.mixes = {net::CrossMix::kCubic};
  spec.staggers = {SimDuration{0}};
  spec.runs = 2;
  spec.seed = 7;
  return spec;
}

/// Canonical bytes of a store's cells: key-sorted records, exactly what an
/// export writes. Equality here is the byte-identical contract.
std::string store_bytes(const runner::FairnessStore& store) {
  std::ostringstream os;
  store.for_each(
      [&os](const runner::FairnessCell& cell) { runner::FairnessCodec::write(os, cell); });
  return os.str();
}

runner::FairnessStore make_store(const runner::FairnessSpec& spec, const std::string& tag) {
  return runner::FairnessStore(testing::TempDir() + "fairness_" + tag + ".qfr", spec.seed,
                               spec.runs, spec.fingerprint());
}

TEST(FairnessGrid, ByteIdenticalAcrossJobCounts) {
  const runner::FairnessSpec spec = small_spec();

  runner::FairnessStore serial = make_store(spec, "jobs1");
  runner::GridOptions one;
  one.jobs = 1;
  const auto report_serial = runner::run_fairness(spec, serial, one);
  EXPECT_TRUE(report_serial.failures.empty());
  EXPECT_EQ(report_serial.executed, spec.grid_size());

  runner::FairnessStore parallel = make_store(spec, "jobs4");
  runner::GridOptions four;
  four.jobs = 4;
  const auto report_parallel = runner::run_fairness(spec, parallel, four);
  EXPECT_TRUE(report_parallel.failures.empty());

  const std::string bytes = store_bytes(serial);
  EXPECT_FALSE(bytes.empty());
  EXPECT_EQ(bytes, store_bytes(parallel));
}

TEST(FairnessGrid, ShardSplitMergesToTheUnshardedResult) {
  const runner::FairnessSpec spec = small_spec();
  runner::FairnessStore whole = make_store(spec, "whole");
  runner::GridOptions two;
  two.jobs = 2;
  ASSERT_TRUE(runner::run_fairness(spec, whole, two).failures.empty());

  runner::FairnessSpec shard0 = spec;
  shard0.shard_index = 0;
  shard0.shard_count = 2;
  runner::FairnessSpec shard1 = spec;
  shard1.shard_index = 1;
  shard1.shard_count = 2;
  runner::FairnessStore store0 = make_store(spec, "shard0");
  runner::FairnessStore store1 = make_store(spec, "shard1");
  ASSERT_TRUE(runner::run_fairness(shard0, store0, two).failures.empty());
  ASSERT_TRUE(runner::run_fairness(shard1, store1, two).failures.empty());
  EXPECT_EQ(store0.size() + store1.size(), spec.grid_size());

  // Merge in both orders; either way the bytes match the unsharded run.
  runner::FairnessStore merged01 = make_store(spec, "merged01");
  ASSERT_TRUE(merged01.absorb(store0.path()));
  ASSERT_TRUE(merged01.absorb(store1.path()));
  runner::FairnessStore merged10 = make_store(spec, "merged10");
  ASSERT_TRUE(merged10.absorb(store1.path()));
  ASSERT_TRUE(merged10.absorb(store0.path()));

  EXPECT_EQ(store_bytes(merged01), store_bytes(whole));
  EXPECT_EQ(store_bytes(merged10), store_bytes(whole));
}

TEST(FairnessGrid, InterruptAndResumeMatchesOneShot) {
  const runner::FairnessSpec spec = small_spec();
  runner::FairnessStore oneshot = make_store(spec, "oneshot");
  runner::GridOptions serial;
  serial.jobs = 1;
  ASSERT_TRUE(runner::run_fairness(spec, oneshot, serial).failures.empty());

  // "Interrupt" after two cells (deterministic via max_tasks), then resume
  // from the checkpoint the first run wrote.
  runner::FairnessStore resumed = make_store(spec, "resumed");
  runner::GridOptions partial;
  partial.jobs = 1;
  partial.max_tasks = 2;
  const auto first = runner::run_fairness(spec, resumed, partial);
  EXPECT_EQ(first.executed, 2u);

  runner::FairnessStore reopened = make_store(spec, "resumed");
  ASSERT_TRUE(reopened.load());
  EXPECT_EQ(reopened.size(), 2u);
  const auto second = runner::run_fairness(spec, reopened, serial);
  EXPECT_EQ(second.skipped, 2u);
  EXPECT_TRUE(second.failures.empty());

  EXPECT_EQ(store_bytes(reopened), store_bytes(oneshot));
}

// --- single-flow compatibility ----------------------------------------------

TEST(FairnessCell, FlowsZeroReproducesTheLegacyTopology) {
  runner::FairnessSpec spec = small_spec();
  spec.sites = {"apache.org"};
  spec.flow_counts = {0};
  const auto tasks = spec.tasks();
  ASSERT_EQ(tasks.size(), 1u);
  const runner::FairnessCell cell = runner::run_fairness_cell(tasks[0], spec);
  EXPECT_DOUBLE_EQ(cell.jain_index, 1.0);
  EXPECT_TRUE(cell.flow_goodput_bps.empty());

  // Replay the cell by hand through the plain single-connection entry point
  // (the same seed schedule run_fairness_cell uses) and demand the exact
  // accumulation, not just closeness.
  const auto catalog = web::study_catalog(spec.seed);
  const web::Website* site = nullptr;
  for (const auto& candidate : catalog) {
    if (candidate.name == "apache.org") site = &candidate;
  }
  ASSERT_NE(site, nullptr);
  const auto& protocol = core::protocol_by_name("QUIC");
  const net::NetworkProfile profile = net::dsl_profile();

  Rng run_rng(tasks[0].base_seed);
  double plt_sum = 0.0;
  double si_sum = 0.0;
  std::uint32_t finished = 0;
  for (std::uint32_t r = 0; r < spec.runs; ++r) {
    const auto result =
        core::run_trial(core::TrialSpec(*site, protocol, profile, run_rng.next_u64()));
    plt_sum += result.metrics.plt_ms();
    si_sum += result.metrics.si_ms();
    if (result.metrics.finished) ++finished;
  }
  EXPECT_EQ(cell.pages_finished, finished);
  EXPECT_EQ(cell.mean_plt_ms, plt_sum / spec.runs);
  EXPECT_EQ(cell.mean_si_ms, si_sum / spec.runs);
}

// --- contention + impairments (torture-cell regression) ----------------------

TEST(ContentionTorture, ReorderContendedCellIsLiveAndDeterministic) {
  const auto scenarios = runner::contention_scenarios(net::dsl_profile());
  const runner::TortureScenario* scenario = nullptr;
  for (const auto& candidate : scenarios) {
    if (candidate.name == "reorder-contended") scenario = &candidate;
  }
  ASSERT_NE(scenario, nullptr);
  ASSERT_GT(scenario->profile.impairments.reorder_rate, 0.0);
  ASSERT_TRUE(scenario->contention.enabled());

  const auto catalog = web::study_catalog(7);
  const auto& protocol = core::protocol_by_name("QUIC");

  const auto run_once = [&]() {
    core::TrialContext context;
    core::ContentionOutcome outcome;
    const auto result = context.run(
        core::TrialSpec(catalog.front(), protocol, scenario->profile, 99)
            .with_contention(scenario->contention),
        &outcome);
    return std::pair(result, outcome);
  };
  const auto [result_a, outcome_a] = run_once();
  const auto [result_b, outcome_b] = run_once();

  // Liveness: the contended, reordered load still completes.
  EXPECT_TRUE(result_a.metrics.finished);
  // Determinism: identical metrics and identical per-flow byte counts.
  EXPECT_EQ(result_a.metrics.plt_ms(), result_b.metrics.plt_ms());
  EXPECT_EQ(result_a.metrics.si_ms(), result_b.metrics.si_ms());
  EXPECT_EQ(result_a.transport.retransmissions, result_b.transport.retransmissions);
  ASSERT_EQ(outcome_a.flows.size(), outcome_b.flows.size());
  ASSERT_EQ(outcome_a.flows.size(), scenario->contention.flows);
  for (std::size_t i = 0; i < outcome_a.flows.size(); ++i) {
    EXPECT_EQ(outcome_a.flows[i].bytes_delivered, outcome_b.flows[i].bytes_delivered);
  }
  EXPECT_EQ(outcome_a.peak_queue_bytes, outcome_b.peak_queue_bytes);
  EXPECT_EQ(outcome_a.queue_drops, outcome_b.queue_drops);
  // The crowd actually moved data through the shared bottleneck.
  std::uint64_t delivered = 0;
  for (const auto& flow : outcome_a.flows) delivered += flow.bytes_delivered;
  EXPECT_GT(delivered, 0u);
}

}  // namespace
}  // namespace qperc
