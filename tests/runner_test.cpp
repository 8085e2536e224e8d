// Runner tests: executor fault capture, grid sharding, durable result
// store (corruption, truncation, atomicity), campaign determinism across
// job counts, resume-from-checkpoint, fault injection and progress on both
// grids the one grid loop runs (campaign and fairness).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/protocol.hpp"
#include "core/video.hpp"
#include "net/profile.hpp"
#include "runner/campaign.hpp"
#include "runner/campaign_runner.hpp"
#include "runner/executor.hpp"
#include "runner/fairness.hpp"
#include "runner/result_store.hpp"
#include "util/durable_file.hpp"
#include "web/website.hpp"

namespace qperc::runner {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// --- Executor ---------------------------------------------------------------

TEST(Executor, RunsEveryTaskExactlyOnce) {
  std::vector<std::atomic<int>> hits(64);
  Executor executor({.jobs = 4});
  const auto failures =
      executor.run(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  EXPECT_TRUE(failures.empty());
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(Executor, CapturesThrowingTasksAndCompletesTheRest) {
  std::vector<std::atomic<int>> hits(16);
  Executor executor({.jobs = 3});
  const auto failures = executor.run(hits.size(), [&](std::size_t i) {
    hits[i].fetch_add(1);
    if (i % 5 == 0) throw std::runtime_error("task " + std::to_string(i) + " boom");
  });
  ASSERT_EQ(failures.size(), 4u);  // indices 0, 5, 10, 15
  // Sorted by index, with the exception preserved.
  EXPECT_EQ(failures[0].index, 0u);
  EXPECT_EQ(failures[1].index, 5u);
  EXPECT_EQ(failures[2].index, 10u);
  EXPECT_EQ(failures[3].index, 15u);
  EXPECT_NE(failures[0].message.find("task 0 boom"), std::string::npos);
  EXPECT_TRUE(failures[0].error);
  EXPECT_THROW(std::rethrow_exception(failures[0].error), std::runtime_error);
  // Non-throwing tasks all completed despite the failures.
  for (std::size_t i = 0; i < hits.size(); ++i) {
    if (i % 5 != 0) {
      EXPECT_EQ(hits[i].load(), 1) << "task " << i;
    }
  }
}

TEST(Executor, RetriesUpToMaxAttempts) {
  std::vector<std::atomic<int>> attempts(4);
  Executor executor({.jobs = 2, .max_attempts = 3});
  const auto failures = executor.run(attempts.size(), [&](std::size_t i) {
    const int attempt = attempts[i].fetch_add(1) + 1;
    if (i == 1) throw std::runtime_error("always fails");  // exhausts retries
    if (i == 2 && attempt < 3) throw std::runtime_error("flaky");  // succeeds 3rd try
  });
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_EQ(failures[0].index, 1u);
  EXPECT_EQ(failures[0].attempts, 3u);
  EXPECT_EQ(attempts[1].load(), 3);  // retried to the bound
  EXPECT_EQ(attempts[2].load(), 3);  // flaky task recovered
  EXPECT_EQ(attempts[0].load(), 1);
  EXPECT_EQ(attempts[3].load(), 1);
}

TEST(Executor, DescribeExceptionHandlesNonStdThrows) {
  std::exception_ptr error;
  try {
    throw 42;
  } catch (...) {
    error = std::current_exception();
  }
  EXPECT_EQ(describe_exception(error), "unknown exception");
  EXPECT_EQ(describe_exception(std::exception_ptr{}), "no exception");
}

// --- CampaignSpec -----------------------------------------------------------

CampaignSpec tiny_spec() {
  CampaignSpec spec;
  spec.sites = {"wikipedia.org", "gov.uk"};
  spec.protocols = {"QUIC", "TCP"};
  spec.networks = {net::NetworkKind::kDsl, net::NetworkKind::kLte};
  spec.runs = 2;
  spec.seed = 7;
  return spec;
}

/// A 2-site fairness grid of one-run cells (flows 0 only).
FairnessSpec tiny_fairness_spec() {
  FairnessSpec spec;
  spec.sites = {"wikipedia.org", "apache.org"};
  spec.protocols = {"QUIC"};
  spec.networks = {net::NetworkKind::kDsl};
  spec.flow_counts = {0};
  spec.mixes = {net::CrossMix::kCubic};
  spec.staggers = {SimDuration{0}};
  spec.runs = 1;
  return spec;
}

/// The LTE-trace + policer overlay of the study smoke test.
net::LinkConditions lte_policed() {
  net::LinkConditions conditions;
  conditions.link_trace = net::RateSchedule::Kind::kLteTrace;
  conditions.link_trace_seed = 3;
  conditions.policer_rate = DataRate::megabits_per_second(4);
  conditions.policer_burst_bytes = 32 * 1024;
  return conditions;
}

TEST(CampaignSpec, ValidateRejectsDegenerateGrids) {
  EXPECT_NO_THROW(tiny_spec().validate());
  auto no_sites = tiny_spec();
  no_sites.sites.clear();
  EXPECT_THROW(no_sites.validate(), std::invalid_argument);
  auto no_runs = tiny_spec();
  no_runs.runs = 0;
  EXPECT_THROW(no_runs.validate(), std::invalid_argument);
  auto bad_shard = tiny_spec();
  bad_shard.shard_index = 2;
  bad_shard.shard_count = 2;
  EXPECT_THROW(bad_shard.validate(), std::invalid_argument);
  auto zero_shards = tiny_spec();
  zero_shards.shard_count = 0;
  EXPECT_THROW(zero_shards.validate(), std::invalid_argument);
  // A repeated axis value would run one cell twice and store it once.
  auto repeated = tiny_spec();
  repeated.protocols = {"TCP", "QUIC", "TCP"};
  EXPECT_THROW(repeated.validate(), std::invalid_argument);
  // The fairness grid shares the check, on its own axes too.
  EXPECT_NO_THROW(tiny_fairness_spec().validate());
  auto repeated_flows = tiny_fairness_spec();
  repeated_flows.flow_counts = {0, 0};
  EXPECT_THROW(repeated_flows.validate(), std::invalid_argument);
}

TEST(CampaignSpec, StimulusSpecIsThePaperGridOverTheFirstSites) {
  const auto spec = stimulus_spec(7, 2, 5, lte_policed());
  EXPECT_EQ(spec.sites, web::lab_study_domains());  // the first five catalog sites
  EXPECT_EQ(spec.protocols.size(), core::paper_protocols().size());
  EXPECT_EQ(spec.networks.size(), net::all_profiles().size());
  EXPECT_EQ(spec.runs, 2u);
  EXPECT_EQ(spec.seed, 7u);
  EXPECT_EQ(spec.conditions.token(), lte_policed().token());
  // A budget past the catalog takes every site once.
  EXPECT_EQ(stimulus_spec(7, 2, 1000).sites.size(), web::study_site_specs().size());
}

TEST(CampaignSpec, ShardsPartitionTheGrid) {
  const auto spec = tiny_spec();
  const auto full = spec.tasks();
  ASSERT_EQ(full.size(), spec.grid_size());

  std::set<std::size_t> seen;
  for (unsigned shard = 0; shard < 3; ++shard) {
    auto sharded = spec;
    sharded.shard_index = shard;
    sharded.shard_count = 3;
    for (const auto& task : sharded.tasks()) {
      EXPECT_EQ(task.grid_index % 3, shard);
      // Shard tasks are verbatim grid tasks (identity-derived seed intact).
      const auto& reference = full[task.grid_index];
      EXPECT_EQ(task.site, reference.site);
      EXPECT_EQ(task.protocol, reference.protocol);
      EXPECT_EQ(task.base_seed, reference.base_seed);
      EXPECT_TRUE(seen.insert(task.grid_index).second) << "duplicate grid cell";
    }
  }
  EXPECT_EQ(seen.size(), full.size());  // disjoint union covers everything
}

TEST(CampaignSpec, TaskSeedsDeriveFromIdentityOnly) {
  const auto tasks = tiny_spec().tasks();
  std::set<std::uint64_t> seeds;
  for (const auto& task : tasks) {
    EXPECT_EQ(task.base_seed,
              core::condition_base_seed(7, task.site, task.protocol, task.network));
    seeds.insert(task.base_seed);
  }
  EXPECT_EQ(seeds.size(), tasks.size());  // distinct per condition
}

// --- ResultStore ------------------------------------------------------------

core::Video make_video(const std::string& site, const std::string& protocol,
                       net::NetworkKind network) {
  const auto catalog = web::study_catalog(7);
  for (const auto& candidate : catalog) {
    if (candidate.name == site) {
      return core::produce_video(candidate, core::protocol_by_name(protocol),
                                 net::profile_for(network), /*runs=*/2,
                                 core::condition_base_seed(7, site, protocol, network));
    }
  }
  throw std::invalid_argument("site not in catalog: " + site);
}

std::string record_of(const core::Video& video) {
  std::ostringstream os;
  core::VideoCodec::write(os, video);
  return os.str();
}

TEST(ResultStore, RoundTripsThroughDisk) {
  const std::string path = temp_path("qperc_store_roundtrip.qcr");
  std::remove(path.c_str());
  {
    ResultStore writer(path, 7, 2);
    writer.put(make_video("gov.uk", "QUIC", net::NetworkKind::kDsl));
    writer.put(make_video("wikipedia.org", "TCP", net::NetworkKind::kLte));
    writer.checkpoint();
  }
  ResultStore reader(path, 7, 2);
  ASSERT_TRUE(reader.load());
  EXPECT_EQ(reader.size(), 2u);
  EXPECT_TRUE(reader.contains({"gov.uk", "QUIC", net::NetworkKind::kDsl}));
  EXPECT_TRUE(reader.contains({"wikipedia.org", "TCP", net::NetworkKind::kLte}));
  EXPECT_FALSE(reader.contains({"gov.uk", "TCP", net::NetworkKind::kDsl}));

  const auto original = make_video("gov.uk", "QUIC", net::NetworkKind::kDsl);
  reader.for_each([&](const core::Video& video) {
    if (video.site != "gov.uk") return;
    EXPECT_EQ(video.runs, original.runs);
    EXPECT_DOUBLE_EQ(video.metrics.si_ms(), original.metrics.si_ms());
    EXPECT_DOUBLE_EQ(video.mean_metrics.plt_ms(), original.mean_metrics.plt_ms());
    EXPECT_DOUBLE_EQ(video.mean_retransmissions, original.mean_retransmissions);
    ASSERT_EQ(video.vc_curve.size(), original.vc_curve.size());
    // Every field, VC samples included, survives the disk round trip.
    EXPECT_EQ(record_of(video), record_of(original));
  });
  std::remove(path.c_str());
}

TEST(ResultStore, RejectsMismatchedSeedOrRuns) {
  const std::string path = temp_path("qperc_store_mismatch.qcr");
  std::remove(path.c_str());
  {
    ResultStore writer(path, 7, 2);
    writer.put(make_video("gov.uk", "QUIC", net::NetworkKind::kDsl));
    writer.checkpoint();
  }
  ResultStore wrong_seed(path, 8, 2);
  EXPECT_FALSE(wrong_seed.load());
  EXPECT_EQ(wrong_seed.size(), 0u);
  ResultStore wrong_runs(path, 7, 3);
  EXPECT_FALSE(wrong_runs.load());
  ResultStore missing(temp_path("qperc_store_missing.qcr"), 7, 2);
  EXPECT_FALSE(missing.load());

  // An older format version is refused even with intact records and
  // checksum: v2 stores may hold counter-enabled campaign results that the
  // current link model no longer reproduces.
  std::string stale = slurp(path);
  const std::string magic = ResultStore::kMagic;
  ASSERT_EQ(stale.compare(0, magic.size(), magic), 0);
  stale.replace(0, magic.size(), "qperc-campaign-v2");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << stale;
  }
  ResultStore old_version(path, 7, 2);
  EXPECT_FALSE(old_version.load());
  EXPECT_EQ(old_version.size(), 0u);
  std::remove(path.c_str());
}

TEST(ResultStore, DetectsCorruptionAndTruncation) {
  const std::string path = temp_path("qperc_store_corrupt.qcr");
  std::remove(path.c_str());
  {
    ResultStore writer(path, 7, 2);
    writer.put(make_video("gov.uk", "QUIC", net::NetworkKind::kDsl));
    writer.put(make_video("gov.uk", "TCP", net::NetworkKind::kLte));
    writer.checkpoint();
  }
  const std::string good = slurp(path);
  ASSERT_FALSE(good.empty());

  // Flip one byte in the middle of the record block: checksum must fail.
  std::string corrupt = good;
  const std::size_t mid = corrupt.size() / 2;
  corrupt[mid] = corrupt[mid] == 'x' ? 'y' : 'x';
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << corrupt;
  }
  ResultStore corrupted(path, 7, 2);
  EXPECT_FALSE(corrupted.load());
  EXPECT_EQ(corrupted.size(), 0u);  // never partially populated

  // Drop the tail (checksum line and part of a record): truncation must fail.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << good.substr(0, good.size() * 2 / 3);
  }
  ResultStore truncated(path, 7, 2);
  EXPECT_FALSE(truncated.load());
  EXPECT_EQ(truncated.size(), 0u);

  // The same key twice, under a valid checksum and a matching count.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << good;
  }
  const auto saved = read_durable(path, ResultStore::kMagic);
  ASSERT_TRUE(saved.has_value());
  const std::string first = saved->payload.substr(0, saved->payload.find('\n') + 1);
  write_durable(path, saved->header, first + first);
  ResultStore duplicated(path, 7, 2);
  EXPECT_FALSE(duplicated.load());
  EXPECT_EQ(duplicated.size(), 0u);
  std::remove(path.c_str());
}

TEST(ResultStore, AutoCheckpointsEveryNputsAtomically) {
  const std::string path = temp_path("qperc_store_autockpt.qcr");
  std::remove(path.c_str());
  ResultStore store(path, 7, 2, /*checkpoint_every=*/1);
  store.put(make_video("gov.uk", "QUIC", net::NetworkKind::kDsl));
  // checkpoint_every=1: the file exists without an explicit checkpoint().
  ResultStore reader(path, 7, 2);
  EXPECT_TRUE(reader.load());
  EXPECT_EQ(reader.size(), 1u);
  // The atomic write never leaves its temp file behind.
  EXPECT_FALSE(std::filesystem::exists(durable_temp_path(path)));
  std::remove(path.c_str());
}

TEST(ResultStore, UnconditionedHeaderIsUnchangedAndOverlaysAppendTheirToken) {
  const std::string path = temp_path("qperc_store_header.qcr");
  std::remove(path.c_str());
  {
    ResultStore writer(path, 7, 2);
    writer.put(make_video("gov.uk", "QUIC", net::NetworkKind::kDsl));
    writer.checkpoint();
  }
  auto saved = read_durable(path, ResultStore::kMagic);
  ASSERT_TRUE(saved.has_value());
  EXPECT_EQ(saved->header, "qperc-campaign-v4 7 2 1");

  ResultStore conditioned(path, 7, 2, 25, lte_policed());
  conditioned.put(make_video("gov.uk", "QUIC", net::NetworkKind::kDsl));
  conditioned.checkpoint();
  saved = read_durable(path, ResultStore::kMagic);
  ASSERT_TRUE(saved.has_value());
  EXPECT_EQ(saved->header, "qperc-campaign-v4 7 2 " + lte_policed().token() + " 1");
  std::remove(path.c_str());
}

TEST(ResultStore, ConditionedAndUnconditionedStoresRefuseEachOther) {
  const std::string plain_path = temp_path("qperc_store_plain.qcr");
  const std::string cond_path = temp_path("qperc_store_cond.qcr");
  auto plain_spec = tiny_spec();
  plain_spec.sites = {"wikipedia.org"};
  plain_spec.protocols = {"QUIC"};
  plain_spec.networks = {net::NetworkKind::kLte};
  auto cond_spec = plain_spec;
  cond_spec.conditions = lte_policed();
  for (const auto& path : {plain_path, cond_path}) std::remove(path.c_str());
  ResultStore plain(plain_path, plain_spec.seed, plain_spec.runs);
  ResultStore cond(cond_path, cond_spec.seed, cond_spec.runs, 25, cond_spec.conditions);
  ASSERT_TRUE(run_campaign(plain_spec, plain).failures.empty());
  ASSERT_TRUE(run_campaign(cond_spec, cond).failures.empty());

  // Neither file loads under the other's identity, and neither spec runs
  // into the other's store.
  ResultStore plain_reader(cond_path, plain_spec.seed, plain_spec.runs);
  EXPECT_FALSE(plain_reader.load());
  ResultStore cond_reader(plain_path, cond_spec.seed, cond_spec.runs, 25, cond_spec.conditions);
  EXPECT_FALSE(cond_reader.load());
  EXPECT_THROW(static_cast<void>(run_campaign(plain_spec, cond)), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(run_campaign(cond_spec, plain)), std::invalid_argument);

  // A library adopts only the store of its own link conditions.
  core::VideoLibrary plain_library(plain_spec.seed, plain_spec.runs);
  core::VideoLibrary cond_library(cond_spec.seed, cond_spec.runs, cond_spec.conditions);
  EXPECT_THROW(static_cast<void>(adopt_results(cond, plain_library)), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(adopt_results(plain, cond_library)), std::invalid_argument);
  EXPECT_EQ(adopt_results(cond, cond_library), 1u);
  EXPECT_EQ(adopt_results(plain, plain_library), 1u);
  for (const auto& path : {plain_path, cond_path}) std::remove(path.c_str());
}

// --- Campaign ---------------------------------------------------------------

TEST(Campaign, OverlaidCellStoresWhatTheLibraryComputesUnderTheOverlay) {
  const std::string path = temp_path("qperc_campaign_overlay.qcr");
  std::remove(path.c_str());
  auto spec = tiny_spec();
  spec.sites = {"wikipedia.org"};
  spec.protocols = {"QUIC"};
  spec.networks = {net::NetworkKind::kLte};
  spec.conditions = lte_policed();
  ResultStore store(path, spec.seed, spec.runs, 25, spec.conditions);
  ASSERT_TRUE(run_campaign(spec, store).failures.empty());
  ASSERT_EQ(store.size(), 1u);

  core::VideoLibrary library(spec.seed, spec.runs, spec.conditions);
  core::VideoLibrary plain(spec.seed, spec.runs);
  store.for_each([&](const core::Video& video) {
    EXPECT_EQ(record_of(video),
              record_of(library.get(video.site, video.protocol, video.network)));
    // The overlay reached the trials: the unconditioned stimulus differs.
    EXPECT_NE(record_of(video), record_of(plain.get(video.site, video.protocol, video.network)));
  });
  std::remove(path.c_str());
}


TEST(Campaign, StoreBytesAreIdenticalAcrossJobCounts) {
  const std::string path1 = temp_path("qperc_campaign_jobs1.qcr");
  const std::string path4 = temp_path("qperc_campaign_jobs4.qcr");
  std::remove(path1.c_str());
  std::remove(path4.c_str());
  const auto spec = tiny_spec();

  ResultStore serial(path1, spec.seed, spec.runs);
  CampaignOptions one_job;
  one_job.jobs = 1;
  const auto serial_report = run_campaign(spec, serial, one_job);
  EXPECT_EQ(serial_report.executed, spec.grid_size());
  EXPECT_TRUE(serial_report.failures.empty());

  ResultStore parallel(path4, spec.seed, spec.runs);
  CampaignOptions four_jobs;
  four_jobs.jobs = 4;
  const auto parallel_report = run_campaign(spec, parallel, four_jobs);
  EXPECT_TRUE(parallel_report.failures.empty());

  const std::string serial_bytes = slurp(path1);
  ASSERT_FALSE(serial_bytes.empty());
  EXPECT_EQ(serial_bytes, slurp(path4));  // bit-identical, not just equivalent
  // The ledger totals are the same regardless of completion order.
  EXPECT_TRUE(serial_report.transport == parallel_report.transport);
  EXPECT_GT(serial_report.transport.data_packets_sent, 0u);
  std::remove(path1.c_str());
  std::remove(path4.c_str());
}

TEST(Campaign, ResumeSkipsCheckpointedConditions) {
  const std::string interrupted_path = temp_path("qperc_campaign_resume.qcr");
  const std::string oneshot_path = temp_path("qperc_campaign_oneshot.qcr");
  std::remove(interrupted_path.c_str());
  std::remove(oneshot_path.c_str());
  const auto spec = tiny_spec();

  // "Interrupt" deterministically after 3 of 8 tasks, then resume.
  ResultStore store(interrupted_path, spec.seed, spec.runs, /*checkpoint_every=*/1);
  CampaignOptions first_leg;
  first_leg.jobs = 2;
  first_leg.max_tasks = 3;
  const auto partial = run_campaign(spec, store, first_leg);
  EXPECT_EQ(partial.executed, 3u);
  EXPECT_EQ(store.size(), 3u);

  ResultStore resumed(interrupted_path, spec.seed, spec.runs);
  ASSERT_TRUE(resumed.load());
  CampaignOptions second_leg;
  second_leg.jobs = 2;
  const auto rest = run_campaign(spec, resumed, second_leg);
  EXPECT_EQ(rest.skipped, 3u);
  EXPECT_EQ(rest.executed, spec.grid_size() - 3u);
  EXPECT_TRUE(rest.failures.empty());

  ResultStore oneshot(oneshot_path, spec.seed, spec.runs);
  CampaignOptions one_go;
  one_go.jobs = 1;
  static_cast<void>(run_campaign(spec, oneshot, one_go));
  EXPECT_EQ(slurp(interrupted_path), slurp(oneshot_path));  // resume leaves no trace
  std::remove(interrupted_path.c_str());
  std::remove(oneshot_path.c_str());
}

TEST(Campaign, RecordsFailuresAndCompletesTheRest) {
  const std::string path = temp_path("qperc_campaign_faults.qcr");
  std::remove(path.c_str());
  auto spec = tiny_spec();
  spec.sites = {"wikipedia.org", "no-such-site.test"};  // second site cannot resolve

  ResultStore store(path, spec.seed, spec.runs);
  CampaignOptions options;
  options.jobs = 2;
  options.max_attempts = 2;
  const auto report = run_campaign(spec, store, options);

  ASSERT_EQ(report.failures.size(), 4u);  // 2 protocols x 2 networks
  for (const auto& failure : report.failures) {
    EXPECT_EQ(failure.task.site, "no-such-site.test");
    EXPECT_EQ(failure.attempts, 2u);  // bounded retry was exercised
    EXPECT_NE(failure.message.find("no-such-site.test"), std::string::npos);
    EXPECT_TRUE(failure.error);
  }
  // The healthy half of the grid completed and was persisted.
  EXPECT_EQ(store.size(), 4u);
  EXPECT_TRUE(store.contains({"wikipedia.org", "QUIC", net::NetworkKind::kDsl}));
  EXPECT_TRUE(store.contains({"wikipedia.org", "TCP", net::NetworkKind::kLte}));
  std::remove(path.c_str());

  // The fairness grid runs through the same loop: its unresolvable cell is
  // recorded too, and the healthy cell is stored.
  auto fairness = tiny_fairness_spec();
  fairness.sites = {"wikipedia.org", "no-such-site.test"};
  const std::string cells_path = temp_path("qperc_fairness_faults.qfr");
  std::remove(cells_path.c_str());
  FairnessStore cells(cells_path, fairness.seed, fairness.runs, fairness.fingerprint());
  const auto fairness_report = run_fairness(fairness, cells, options);
  ASSERT_EQ(fairness_report.failures.size(), 1u);
  EXPECT_EQ(fairness_report.failures[0].task.site, "no-such-site.test");
  EXPECT_EQ(fairness_report.failures[0].attempts, options.max_attempts);
  EXPECT_NE(fairness_report.failures[0].message.find("no-such-site.test"), std::string::npos);
  EXPECT_EQ(cells.size(), 1u);
  EXPECT_TRUE(cells.contains(0));
  std::remove(cells_path.c_str());
}

/// Options that record every progress snapshot of a run.
GridOptions recording(std::vector<GridProgress>& snapshots) {
  GridOptions options;
  options.jobs = 2;
  options.progress_interval = std::chrono::milliseconds(0);
  options.on_progress = [&snapshots](const GridProgress& progress) {
    snapshots.push_back(progress);
  };
  return options;
}

/// The snapshots of a run never count backwards, and the last one matches
/// the report.
template <class Task>
void expect_progress_matches(const std::vector<GridProgress>& snapshots,
                             const GridReport<Task>& report, std::size_t resumed) {
  ASSERT_FALSE(snapshots.empty());
  for (std::size_t i = 1; i < snapshots.size(); ++i) {
    EXPECT_LE(snapshots[i - 1].completed, snapshots[i].completed) << "snapshot " << i;
  }
  const GridProgress& last = snapshots.back();
  EXPECT_EQ(last.completed, report.executed - report.failures.size());
  EXPECT_EQ(last.skipped, resumed);
  EXPECT_EQ(last.skipped, report.skipped);
  EXPECT_EQ(last.total, report.total);
}

TEST(Campaign, ProgressCountsEveryCellOnBothGrids) {
  // Each grid is interrupted after 2 cells, then resumed with a recorder.
  const auto spec = tiny_spec();
  const std::string path = temp_path("qperc_campaign_progress.qcr");
  std::remove(path.c_str());
  ResultStore store(path, spec.seed, spec.runs);
  CampaignOptions first_leg;
  first_leg.max_tasks = 2;
  static_cast<void>(run_campaign(spec, store, first_leg));
  std::vector<GridProgress> snapshots;
  const auto report = run_campaign(spec, store, recording(snapshots));
  expect_progress_matches(snapshots, report, 2);
  EXPECT_TRUE(snapshots.back().transport == report.transport);
  std::remove(path.c_str());

  auto fairness = tiny_fairness_spec();
  fairness.flow_counts = {0, 2};
  const std::string cells_path = temp_path("qperc_fairness_progress.qfr");
  std::remove(cells_path.c_str());
  FairnessStore cells(cells_path, fairness.seed, fairness.runs, fairness.fingerprint());
  GridOptions partial;
  partial.max_tasks = 2;
  static_cast<void>(run_fairness(fairness, cells, partial));
  snapshots.clear();
  const auto fairness_report = run_fairness(fairness, cells, recording(snapshots));
  expect_progress_matches(snapshots, fairness_report, 2);
  std::remove(cells_path.c_str());
}

TEST(Campaign, RejectsStoreWithMismatchedParameters) {
  const auto spec = tiny_spec();
  ResultStore wrong(temp_path("qperc_campaign_wrong.qcr"), spec.seed + 1, spec.runs);
  EXPECT_THROW(static_cast<void>(run_campaign(spec, wrong)), std::invalid_argument);
}

TEST(Campaign, AdoptResultsPopulatesLibrary) {
  const std::string path = temp_path("qperc_campaign_adopt.qcr");
  std::remove(path.c_str());
  const auto spec = tiny_spec();
  ResultStore store(path, spec.seed, spec.runs);
  CampaignOptions serial_options;
  serial_options.jobs = 1;
  static_cast<void>(run_campaign(spec, store, serial_options));

  core::VideoLibrary library(spec.seed, spec.runs);
  EXPECT_EQ(adopt_results(store, library), spec.grid_size());
  EXPECT_EQ(library.cached_conditions(), spec.grid_size());
  // Adopted results are exactly what the library would compute itself.
  core::VideoLibrary fresh(spec.seed, spec.runs);
  EXPECT_DOUBLE_EQ(
      library.get("gov.uk", "QUIC", net::NetworkKind::kDsl).metrics.si_ms(),
      fresh.get("gov.uk", "QUIC", net::NetworkKind::kDsl).metrics.si_ms());

  core::VideoLibrary mismatched(spec.seed + 1, spec.runs);
  EXPECT_THROW(static_cast<void>(adopt_results(store, mismatched)),
               std::invalid_argument);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace qperc::runner
