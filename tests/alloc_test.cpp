// Steady-state allocation budget of the page-load hot path, measured with
// the counting operator new/delete shim (util/alloc_interpose.hpp — this
// test binary's one and only TU, as the shim requires).
//
// A reused TrialContext must run trials with a bounded, small number of heap
// allocations: the event slab, the trial arena, and the flat containers keep
// their storage across Simulator::reset(), so the only per-trial heap traffic
// left is the per-origin session objects and the result copy-out. The budget
// below (kMaxAllocationsPerTrial) is the ratcheted contract documented in
// docs/PERFORMANCE.md and recorded in BENCH_micro.json; raising it needs a
// PERFORMANCE.md update, not just a bigger constant.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/protocol.hpp"
#include "core/trial.hpp"
#include "core/trial_context.hpp"
#include "net/contention.hpp"
#include "net/profile.hpp"
#include "util/alloc_interpose.hpp"
#include "web/website.hpp"

namespace qperc {
namespace {

/// Hard ceiling on heap allocations per steady-state trial, both stacks.
/// BENCH_micro.json currently records 18 for the QUIC reference condition;
/// the gap to 50 is headroom for legitimate feature work, not noise.
constexpr std::uint64_t kMaxAllocationsPerTrial = 50;

/// Trials measured after warm-up. Small enough for a debug-build ctest,
/// large enough that a per-trial leak of even one allocation is visible.
constexpr int kMeasuredTrials = 50;
constexpr int kWarmupTrials = 3;

std::uint64_t steady_state_allocs_per_trial(const std::string& protocol_name,
                                            const net::ContentionConfig& contention = {}) {
  const auto catalog = web::study_catalog(7);
  const web::Website& site = web::site_by_name(catalog, "apache.org");
  const auto& protocol = core::protocol_by_name(protocol_name);
  const net::NetworkProfile profile = net::dsl_profile();

  core::TrialContext context;
  std::uint64_t seed = 1;
  // Warm-up grows arena blocks and container capacities to their high-water
  // marks; the timed region below is the steady state users and benches see.
  for (int i = 0; i < kWarmupTrials; ++i) {
    const auto result = context.run(
        core::TrialSpec(site, protocol, profile, seed++).with_contention(contention));
    EXPECT_TRUE(result.metrics.finished);
  }

  const std::uint64_t before = heap_allocations();
  for (int i = 0; i < kMeasuredTrials; ++i) {
    const auto result = context.run(
        core::TrialSpec(site, protocol, profile, seed++).with_contention(contention));
    EXPECT_TRUE(result.metrics.finished);
  }
  return (heap_allocations() - before) / kMeasuredTrials;
}

TEST(AllocBudget, QuicSteadyStateTrialStaysInBudget) {
  const std::uint64_t allocs = steady_state_allocs_per_trial("QUIC");
  EXPECT_LE(allocs, kMaxAllocationsPerTrial)
      << "QUIC steady-state trial allocates more than the documented budget; "
         "see docs/PERFORMANCE.md before raising kMaxAllocationsPerTrial";
}

TEST(AllocBudget, TcpSteadyStateTrialStaysInBudget) {
  const std::uint64_t allocs = steady_state_allocs_per_trial("TCP");
  EXPECT_LE(allocs, kMaxAllocationsPerTrial)
      << "TCP steady-state trial allocates more than the documented budget; "
         "see docs/PERFORMANCE.md before raising kMaxAllocationsPerTrial";
}

/// The multi-flow path keeps the same discipline: endpoints, access links,
/// and the cross-traffic sources live in the per-trial arena, so the only
/// extra steady-state heap traffic is the one session object per cross flow
/// (heap for the same reason the page's per-origin sessions are). The budget
/// therefore scales linearly in the flow count on top of the single-flow
/// ceiling; see docs/PERFORMANCE.md before loosening either constant.
constexpr std::uint32_t kBudgetFlows = 16;
constexpr std::uint64_t kMaxAllocationsPerFlow = 6;

TEST(AllocBudget, MultiFlowSteadyStateTrialStaysInBudget) {
  net::ContentionConfig contention;
  contention.flows = kBudgetFlows;
  contention.mix = net::CrossMix::kMixed;  // covers both cross-session stacks
  const std::uint64_t allocs = steady_state_allocs_per_trial("QUIC", contention);
  EXPECT_LE(allocs, kMaxAllocationsPerTrial + kBudgetFlows * kMaxAllocationsPerFlow)
      << "contended steady-state trial allocates more than the documented "
         "budget; see docs/PERFORMANCE.md before raising the constants";
}

/// Ceiling on the trial arena's footprint (bytes owned by its blocks) on the
/// costliest heavy-mix cells, a ratchet like kMaxAllocationsPerTrial
/// (docs/PERFORMANCE.md). Container storage is recycled and FlatMap tables
/// compact, so the footprint follows what is in flight: 64 + 128 + 256 +
/// 512 + 1024 KiB of blocks on both stacks, where a monotonic arena
/// needed 4032 KiB.
constexpr std::size_t kMaxArenaBytesLossyTrial = 1984 * 1024;

std::size_t warm_arena_bytes(const std::string& protocol_name) {
  const auto catalog = web::study_catalog(7);
  const web::Website& site = web::site_by_name(catalog, "nytimes.com");
  const auto& protocol = core::protocol_by_name(protocol_name);
  const net::NetworkProfile profile = net::da2gc_profile();
  core::TrialContext context;
  for (std::uint64_t seed = 1; seed <= kWarmupTrials + 5; ++seed) {
    (void)context.run(core::TrialSpec(site, protocol, profile, seed));
  }
  return context.arena_bytes_reserved();
}

TEST(ArenaBudget, TcpBbrOnDa2gcStaysInBudget) {
  EXPECT_LE(warm_arena_bytes("TCP+BBR"), kMaxArenaBytesLossyTrial)
      << "see docs/PERFORMANCE.md before raising kMaxArenaBytesLossyTrial";
}

TEST(ArenaBudget, QuicBbrOnDa2gcStaysInBudget) {
  EXPECT_LE(warm_arena_bytes("QUIC+BBR"), kMaxArenaBytesLossyTrial)
      << "see docs/PERFORMANCE.md before raising kMaxArenaBytesLossyTrial";
}

/// The counting shim itself: a heap allocation visibly moves the counter.
TEST(AllocBudget, InterposerCountsAllocations) {
  const std::uint64_t before = heap_allocations();
  auto* p = new std::uint64_t(42);
  EXPECT_GT(heap_allocations(), before);
  delete p;
}

}  // namespace
}  // namespace qperc
