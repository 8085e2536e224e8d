// Bit-exactness golden test for the scheduler rebuild.
//
// One full page-load trial per Table 1 protocol on two seed-fixed sites
// (one small, one large/lossy), with every visual metric recorded as an
// exact nanosecond count, plus the transport ledger and trace counters that
// summarize transport behaviour. The expected values were captured from the
// pre-slab scheduler; the zero-allocation event store must reproduce them
// bit for bit — same FIFO tie-breaks, same RNG draw order, same packet
// schedule.
//
// If a deliberate behaviour change invalidates these rows, re-capture them
// with the snippet in EXPERIMENTS.md ("Benchmarking qperc") and say so in
// the commit message; an unexplained diff here is a determinism bug.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/protocol.hpp"
#include "core/trial.hpp"
#include "net/profile.hpp"
#include "trace/counters.hpp"
#include "trace/trace.hpp"
#include "web/website.hpp"

namespace {

using namespace qperc;

/// Folds every trace event into TrialCounters, nothing else.
class CountersSink final : public trace::TraceSink {
 public:
  void on_event(const trace::Event& event) override { counters_.observe(event); }
  [[nodiscard]] const trace::TrialCounters& counters() const { return counters_; }

 private:
  trace::TrialCounters counters_;
};

struct GoldenRow {
  const char* site;
  const char* protocol;
  // PageMetrics, exact nanosecond counts.
  std::int64_t fvc_ns;
  std::int64_t si_ns;
  std::int64_t vc85_ns;
  std::int64_t lvc_ns;
  std::int64_t plt_ns;
  // PageLoadResult::transport (data_packets_sent .. acks_sent), the trace
  // counters (max_cwnd_bytes .. handshakes_completed), and
  // PageLoadResult::connections_opened.
  std::uint64_t packets_sent;
  std::uint64_t retransmissions;
  std::uint64_t timeouts;
  std::uint64_t acks_sent;
  std::uint64_t max_cwnd_bytes;
  std::uint64_t queue_drops;
  std::uint64_t random_loss_drops;
  std::uint64_t handshakes_completed;
  std::uint64_t connections_opened;
};

// Captured on the LTE profile, catalog seed 7, trial seed 12345.
//
// Re-captured after the variable-rate-link PR's deliberate transport fixes:
// the pacer no longer retroactively accrues credit at a new rate (shifts
// every BBR row a little), spurious RTO/PTO detection undoes needless
// cwnd collapses on the lossy site (fewer timeouts and retransmissions on
// the Cubic rows), and BBRv1 now carries Linux's long-term (policer)
// bandwidth sampler, whose known false-positive on bursty queue-drop loss
// slows TCP+BBR on nytimes — faithful to tcp_bbr v1, and the cost the
// policed cells buy their >= 80%-of-policed-rate goodput with.
constexpr GoldenRow kGolden[] = {
    {"apache.org", "TCP", 647300561, 663078063, 653075796, 1354227624, 1354227624, 167, 0, 0, 77,
     105629, 0, 0, 3, 3},
    {"apache.org", "TCP+", 568486088, 586947742, 573441514, 1354184958, 1354184958, 167, 0, 0, 76,
     137749, 0, 0, 3, 3},
    {"apache.org", "TCP+BBR", 601156617, 618839382, 609446815, 1371059280, 1371059280, 165, 0, 0,
     75, 96533, 0, 0, 3, 3},
    {"apache.org", "QUIC", 392869146, 424490515, 439909347, 1286233534, 1286233534, 177, 0, 0, 87,
     135180, 0, 0, 3, 3},
    {"apache.org", "QUIC+BBR", 429186304, 459388800, 480432351, 1293224081, 1293224081, 177, 0, 0,
     87, 96088, 0, 0, 3, 3},
    {"nytimes.com", "TCP", 2964583528, 3086667951, 3053478719, 4296365025, 4296365025, 3673, 255,
     3, 2091, 328156, 234, 0, 29, 29},
    {"nytimes.com", "TCP+", 2921365239, 3025390858, 2921365239, 4420944486, 4420944486, 3963, 568,
     8, 2415, 496481, 578, 0, 29, 29},
    {"nytimes.com", "TCP+BBR", 5952531146, 5953344052, 5952531146, 6038957328, 6038957328, 3825,
     418, 9, 2331, 307051, 417, 0, 29, 29},
    {"nytimes.com", "QUIC", 2846597462, 3027862230, 3289862382, 5289519703, 5289519703, 4539, 836,
     0, 1850, 422890, 848, 0, 29, 29},
    {"nytimes.com", "QUIC+BBR", 1637119933, 1965359884, 2234268644, 4525116505, 4525116505, 4526,
     803, 2, 1883, 441349, 805, 0, 29, 29},
};

TEST(Golden, TrialsAreBitExactPerTable1Protocol) {
  const auto catalog = web::study_catalog(7);
  const net::NetworkProfile profile = net::lte_profile();
  for (const GoldenRow& row : kGolden) {
    const web::Website* site = nullptr;
    for (const auto& candidate : catalog) {
      if (candidate.name == row.site) site = &candidate;
    }
    ASSERT_NE(site, nullptr) << row.site;
    const auto& protocol = core::protocol_by_name(row.protocol);

    CountersSink sink;
    const auto result = core::run_trial(
        core::TrialSpec(*site, protocol, profile, /*seed=*/12345).with_trace(&sink));
    const std::string label = std::string(row.site) + " / " + row.protocol;

    EXPECT_TRUE(result.metrics.finished) << label;
    EXPECT_EQ(result.metrics.first_visual_change.count(), row.fvc_ns) << label;
    EXPECT_EQ(result.metrics.speed_index.count(), row.si_ns) << label;
    EXPECT_EQ(result.metrics.visual_complete_85.count(), row.vc85_ns) << label;
    EXPECT_EQ(result.metrics.last_visual_change.count(), row.lvc_ns) << label;
    EXPECT_EQ(result.metrics.page_load_time.count(), row.plt_ns) << label;

    EXPECT_EQ(result.transport.data_packets_sent, row.packets_sent) << label;
    EXPECT_EQ(result.transport.retransmissions, row.retransmissions) << label;
    EXPECT_EQ(result.transport.timeouts, row.timeouts) << label;
    EXPECT_EQ(result.transport.acks_sent, row.acks_sent) << label;
    const trace::TrialCounters& counters = sink.counters();
    EXPECT_EQ(counters.max_cwnd_bytes, row.max_cwnd_bytes) << label;
    EXPECT_EQ(counters.queue_drops, row.queue_drops) << label;
    EXPECT_EQ(counters.random_loss_drops, row.random_loss_drops) << label;
    EXPECT_EQ(counters.handshakes_completed, row.handshakes_completed) << label;
    EXPECT_EQ(result.connections_opened, row.connections_opened) << label;
  }
}

TEST(Golden, RerunIsIdenticalToItself) {
  // Sanity guard for the golden rows above: two runs in one process (warm
  // statics, different heap state) must agree with each other exactly.
  const auto catalog = web::study_catalog(7);
  const web::Website* site = nullptr;
  for (const auto& candidate : catalog) {
    if (candidate.name == std::string("apache.org")) site = &candidate;
  }
  ASSERT_NE(site, nullptr);
  const auto& protocol = core::protocol_by_name("QUIC");
  const net::NetworkProfile profile = net::lte_profile();
  const auto a = core::run_trial(core::TrialSpec(*site, protocol, profile, 999));
  const auto b = core::run_trial(core::TrialSpec(*site, protocol, profile, 999));
  EXPECT_EQ(a.metrics.speed_index, b.metrics.speed_index);
  EXPECT_EQ(a.metrics.page_load_time, b.metrics.page_load_time);
  EXPECT_EQ(a.transport.retransmissions, b.transport.retransmissions);
  EXPECT_EQ(a.connections_opened, b.connections_opened);
}

}  // namespace
