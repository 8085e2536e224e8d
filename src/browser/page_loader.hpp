// Browser page-load engine: dependency-driven discovery, one HTTP session
// per origin, priority assignment, and the render model producing the
// visual-completeness curve (the paper's "video" of the loading process).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "browser/metrics.hpp"
#include "http/session.hpp"
#include "net/emulated_network.hpp"
#include "net/transport_stats.hpp"
#include "sim/simulator.hpp"
#include "util/arena.hpp"
#include "util/function.hpp"
#include "util/rng.hpp"
#include "web/website.hpp"

namespace qperc::browser {

/// Why load_page returned. Every reason but kFinished leaves partial metrics
/// whose PLT is the simulator clock at return.
enum class StopReason : std::uint8_t {
  kFinished,
  kTimeCap,      // the virtual-time cap passed: legal under heavy impairment
  kEventBudget,  // the simulator-event budget ran out: a runaway (hung) trial
  kDeadlock,     // empty event queue, page unfinished: no timer left to fire
};

struct PageLoadResult {
  PageMetrics metrics;
  std::vector<VcSample> vc_curve;
  net::TransportStats transport;
  /// Completion time per object id (kNoTime when unfinished).
  std::vector<SimTime> object_complete_at;
  /// Body bytes the HTTP layer reported delivered per object id. Conservation
  /// invariant (torture harness): exactly `object.bytes` for complete objects,
  /// at most that for incomplete ones — transport duplicates must never
  /// double-count.
  std::vector<std::uint64_t> object_body_delivered;
  std::uint32_t connections_opened = 0;
  StopReason stop = StopReason::kFinished;
};

class PageLoader {
 public:
  /// Creates one HTTP session (H2-over-TCP or gQUIC) for an origin.
  /// SmallFunction rather than std::function: the factory is built once per
  /// trial inside TrialContext::run, and a pointer-sized capture set must
  /// never push a type-erasure allocation onto the hot path (callers capture
  /// their protocol config by reference; the config outlives the loader).
  using SessionFactory =
      SmallFunction<std::unique_ptr<http::Session>(net::ServerId origin)>;

  /// `rng` drives small behavioural jitter (per-request server think time);
  /// page loads are deterministic in (site, factory config, rng seed).
  PageLoader(sim::Simulator& simulator, const web::Website& site,
             SessionFactory session_factory, Rng rng = Rng(0));
  PageLoader(const PageLoader&) = delete;
  PageLoader& operator=(const PageLoader&) = delete;

  /// Kicks off the root document fetch.
  void start();
  [[nodiscard]] bool finished() const noexcept {
    return completed_objects_ == site_.objects.size();
  }
  [[nodiscard]] std::size_t completed_objects() const noexcept { return completed_objects_; }
  /// Collects the result; valid any time (finished flag reflects progress).
  [[nodiscard]] PageLoadResult result() const;

 private:
  struct ObjectState {
    bool requested = false;
    bool complete = false;
    std::uint64_t body_delivered = 0;
    SimTime complete_at{0};
  };

  void request_object(std::uint32_t id);
  void on_progress(std::uint32_t id, std::uint64_t body_bytes, bool complete);
  void check_discoveries(std::uint32_t parent_id);
  void on_object_complete(std::uint32_t id);
  void submit_to_session(http::Session& session, std::uint32_t id);
  /// Dispatches the request for `id`: submits on an existing session, or
  /// queues it while the browser's connection pool is saturated.
  void dispatch(std::uint32_t id);
  void open_connection(std::uint32_t origin);
  void on_connection_established();

  /// Chromium-style cap on sockets being connected concurrently; keeps the
  /// browser from slamming dozens of handshakes into the uplink in the same
  /// millisecond.
  static constexpr std::size_t kMaxConcurrentConnecting = 8;

  sim::Simulator& simulator_;
  const web::Website& site_;
  SessionFactory session_factory_;
  Rng rng_;

  /// Ordered by origin id: result() iterates to aggregate transport stats,
  /// so the order must be deterministic (see scripts/lint_determinism.py).
  /// All loader bookkeeping draws from the trial arena; the session objects
  /// themselves are the only per-origin heap allocations (their destructors
  /// still run when the map is destroyed — only node memory is arena-owned).
  std::map<std::uint32_t, std::unique_ptr<http::Session>, std::less<std::uint32_t>,
           ArenaAllocator<std::pair<const std::uint32_t, std::unique_ptr<http::Session>>>>
      sessions_;
  std::size_t connecting_ = 0;
  /// Origins waiting for a connection-pool slot, FIFO; per-origin object
  /// queues waiting for their session to exist.
  std::vector<std::uint32_t, ArenaAllocator<std::uint32_t>> waiting_origins_;
  std::map<std::uint32_t, ArenaVec<std::uint32_t>, std::less<std::uint32_t>,
           ArenaAllocator<std::pair<const std::uint32_t, ArenaVec<std::uint32_t>>>>
      queued_objects_;
  std::vector<ObjectState, ArenaAllocator<ObjectState>> states_;
  /// children_by_parent_[p] lists object ids discovered while p loads.
  std::vector<ArenaVec<std::uint32_t>, ArenaAllocator<ArenaVec<std::uint32_t>>> children_;
  std::vector<std::uint32_t, ArenaAllocator<std::uint32_t>> roots_;
  std::size_t completed_objects_ = 0;
  SimTime page_load_end_{0};
};

/// Default virtual-time safety cap of a trial (core::TrialSpec::time_cap).
inline constexpr SimDuration kDefaultLoadTimeCap = seconds(180);

/// Runs one page load until the page finishes, `time_cap` of virtual time
/// passes, `max_events` simulator events fire, or the event queue empties,
/// and records which in PageLoadResult::stop. A deadlocked load still
/// returns with the clock at the cap, so its PLT reads as time-capped.
[[nodiscard]] PageLoadResult load_page(sim::Simulator& simulator, const web::Website& site,
                                       PageLoader::SessionFactory factory, Rng rng,
                                       SimDuration time_cap, std::uint64_t max_events);

}  // namespace qperc::browser
