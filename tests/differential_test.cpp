// Differential oracle over a slice of the paper grid: every way of running a
// trial must reproduce the fresh, untraced result byte for byte.
//
// The slice is apache.org, wikipedia.org and nytimes.com × all five Table 1
// protocols × DSL/LTE/DA2GC/MSS × 2 seeds, plus wikipedia.org × {TCP, QUIC} ×
// {DSL, LTE} against 16 mixed cross-traffic flows on a full droptail
// bottleneck. Each cell's complete PageLoadResult (metrics, VC curve,
// per-object completion times and body bytes, transport stats) and, for the
// contended cells, its ContentionOutcome is compared across:
//
//   * a fresh, untraced TrialContext (the reference);
//   * a fresh context with a MemorySink attached;
//   * a fresh context with a TrialCounters sink attached (what campaigns do);
//   * one reused TrialContext cycling through the whole slice.
//
// The slice must contain queue-overflowing cells: droptail admission at a
// serialization boundary is where a watched link used to diverge.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "core/protocol.hpp"
#include "core/trial.hpp"
#include "core/trial_context.hpp"
#include "core/video.hpp"
#include "net/contention.hpp"
#include "net/profile.hpp"
#include "runner/campaign.hpp"
#include "runner/campaign_runner.hpp"
#include "runner/result_store.hpp"
#include "trace/counters.hpp"
#include "trace/memory_sink.hpp"
#include "web/website.hpp"

namespace qperc {
namespace {

constexpr std::uint64_t kCatalogSeed = 7;

struct CounterSink final : trace::TraceSink {
  trace::TrialCounters counters;
  void on_event(const trace::Event& event) override { counters.observe(event); }
};

struct Cell {
  std::string label;
  core::TrialSpec spec;
};

const web::Website& site_named(const std::string& name) {
  static const auto catalog = web::study_catalog(kCatalogSeed);
  for (const auto& site : catalog) {
    if (site.name == name) return site;
  }
  throw std::runtime_error("site not in catalog: " + name);
}

const std::vector<Cell>& slice() {
  static const std::vector<Cell> cells = [] {
    std::vector<Cell> out;
    const auto add = [&out](const std::string& site, const core::ProtocolConfig& protocol,
                            net::NetworkKind network, std::uint64_t seed,
                            const net::ContentionConfig& contention) {
      core::TrialSpec spec(site_named(site), protocol, net::profile_for(network), seed);
      spec.contention = contention;
      std::ostringstream label;
      label << site << '/' << protocol.name << '/' << net::to_string(network) << "/seed "
            << seed << "/flows " << contention.flows;
      out.push_back(Cell{label.str(), std::move(spec)});
    };
    const net::NetworkKind networks[] = {net::NetworkKind::kDsl, net::NetworkKind::kLte,
                                         net::NetworkKind::kDa2gc, net::NetworkKind::kMss};
    for (const char* site : {"apache.org", "wikipedia.org", "nytimes.com"}) {
      for (const auto& protocol : core::paper_protocols()) {
        for (const auto network : networks) {
          for (const std::uint64_t seed : {1, 2}) add(site, protocol, network, seed, {});
        }
      }
    }
    net::ContentionConfig mixed;
    mixed.flows = 16;
    mixed.mix = net::CrossMix::kMixed;
    for (const char* protocol : {"TCP", "QUIC"}) {
      for (const auto network : {net::NetworkKind::kDsl, net::NetworkKind::kLte}) {
        add("wikipedia.org", core::protocol_by_name(protocol), network, 1, mixed);
      }
    }
    return out;
  }();
  return cells;
}

template <class T>
void put(std::string& out, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  char bytes[sizeof(T)];
  std::memcpy(bytes, &value, sizeof(T));
  out.append(bytes, sizeof(T));
}

/// Every field of a trial's outcome, as raw bytes.
std::string bytes_of(const browser::PageLoadResult& result,
                     const core::ContentionOutcome& contention) {
  std::string out;
  const browser::PageMetrics& m = result.metrics;
  for (const SimDuration d : {m.first_visual_change, m.last_visual_change, m.page_load_time,
                              m.visual_complete_85, m.speed_index}) {
    put(out, d.count());
  }
  put(out, m.finished);
  put(out, result.vc_curve.size());
  for (const auto& sample : result.vc_curve) {
    put(out, sample.time.count());
    put(out, sample.completeness);
  }
  put(out, result.transport);  // all std::uint64_t fields, no padding
  put(out, result.object_complete_at.size());
  for (const SimTime t : result.object_complete_at) put(out, t.count());
  put(out, result.object_body_delivered.size());
  for (const std::uint64_t b : result.object_body_delivered) put(out, b);
  put(out, result.connections_opened);

  put(out, contention.flows.size());
  for (const auto& flow : contention.flows) {
    out.append(flow.protocol);
    put(out, flow.bytes_delivered);
    put(out, flow.goodput_bps);
    put(out, flow.retransmissions);
  }
  put(out, contention.peak_queue_bytes);
  put(out, contention.queue_capacity_bytes);
  put(out, contention.queue_drops);
  put(out, contention.measured.count());
  return out;
}

std::string run_in(core::TrialContext& context, const core::TrialSpec& spec,
                   trace::TraceSink* sink) {
  core::TrialSpec traced = spec;
  traced.trace = sink;
  core::ContentionOutcome contention;
  const auto result = context.run(traced, &contention);
  return bytes_of(result, contention);
}

std::string run_fresh(const core::TrialSpec& spec, trace::TraceSink* sink) {
  core::TrialContext context;
  return run_in(context, spec, sink);
}

/// Fresh, untraced results: the reference every other mode must match.
const std::vector<std::string>& reference() {
  static const std::vector<std::string> results = [] {
    std::vector<std::string> out;
    for (const auto& cell : slice()) out.push_back(run_fresh(cell.spec, nullptr));
    return out;
  }();
  return results;
}

TEST(Differential, MemorySinkNeverChangesAResult) {
  trace::MemorySink sink;
  for (std::size_t i = 0; i < slice().size(); ++i) {
    sink.clear();
    EXPECT_TRUE(run_fresh(slice()[i].spec, &sink) == reference()[i]) << slice()[i].label;
    EXPECT_FALSE(sink.events().empty()) << slice()[i].label;
  }
}

TEST(Differential, CounterSinkNeverChangesAResult) {
  std::size_t overflowing = 0;
  for (std::size_t i = 0; i < slice().size(); ++i) {
    CounterSink sink;
    EXPECT_TRUE(run_fresh(slice()[i].spec, &sink) == reference()[i]) << slice()[i].label;
    if (sink.counters.queue_drops > 0) ++overflowing;
  }
  // Queue-overflowing cells are where the admission decision matters.
  EXPECT_GE(overflowing, 10u);
}

TEST(Differential, ReusedContextMatchesFreshContexts) {
  core::TrialContext context;
  for (std::size_t i = 0; i < slice().size(); ++i) {
    EXPECT_TRUE(run_in(context, slice()[i].spec, nullptr) == reference()[i])
        << slice()[i].label;
  }
}

std::string record_of(const core::Video& video) {
  std::ostringstream os;
  core::write_video_record(os, video);
  return os.str();
}

/// A campaign with default options (counters on) records the same stimuli
/// the study's VideoLibrary computes.
TEST(Differential, CampaignRecordMatchesVideoLibrary) {
  runner::CampaignSpec spec;
  spec.sites = {"wikipedia.org"};
  spec.protocols = {"TCP"};
  spec.networks = {net::NetworkKind::kDsl, net::NetworkKind::kDa2gc};
  spec.runs = 8;
  spec.seed = kCatalogSeed;
  const std::string path =
      (std::filesystem::temp_directory_path() / "qperc_differential.qcr").string();
  std::remove(path.c_str());
  runner::ResultStore store(path, spec.seed, spec.runs);
  const auto report = runner::run_campaign(spec, store);
  ASSERT_TRUE(report.failures.empty());
  ASSERT_EQ(store.size(), 2u);

  core::VideoLibrary library(spec.seed, spec.runs);
  store.for_each([&](const core::Video& video) {
    EXPECT_EQ(record_of(video),
              record_of(library.get(video.site, video.protocol, video.network)))
        << video.site << '/' << video.protocol << '/' << net::to_string(video.network);
  });
  std::remove(path.c_str());
}

}  // namespace
}  // namespace qperc
