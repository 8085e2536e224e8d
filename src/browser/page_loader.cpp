#include "browser/page_loader.hpp"

#include <algorithm>
#include <map>

#include "util/check.hpp"

namespace qperc::browser {
namespace {

/// Priority classes mirror Chromium's resource scheduler: document and
/// blocking CSS first, scripts/fonts next, images last.
std::uint8_t request_priority(const web::WebObject& object) {
  return object.priority;
}

}  // namespace

PageLoader::PageLoader(sim::Simulator& simulator, const web::Website& site,
                       SessionFactory session_factory, Rng rng)
    : simulator_(simulator),
      site_(site),
      session_factory_(std::move(session_factory)),
      rng_(rng),
      sessions_(ArenaAllocator<std::pair<const std::uint32_t, std::unique_ptr<http::Session>>>(
          simulator.arena())),
      waiting_origins_(ArenaAllocator<std::uint32_t>(simulator.arena())),
      queued_objects_(ArenaAllocator<std::pair<const std::uint32_t, ArenaVec<std::uint32_t>>>(
          simulator.arena())),
      states_(ArenaAllocator<ObjectState>(simulator.arena())),
      children_(ArenaAllocator<ArenaVec<std::uint32_t>>(simulator.arena())),
      roots_(ArenaAllocator<std::uint32_t>(simulator.arena())) {
  states_.resize(site.objects.size());
  children_.resize(site.objects.size());
  for (const auto& object : site.objects) {
    if (object.parent < 0) {
      roots_.push_back(object.id);
    } else {
      // Always-on: an out-of-range parent id would index past the children_
      // vector; a corrupt catalog must not become memory corruption.
      QPERC_CHECK_LT(static_cast<std::size_t>(object.parent), site.objects.size())
          << "object references a parent outside the site catalog";
      children_[static_cast<std::size_t>(object.parent)].push_back(simulator.arena(),
                                                                   object.id);
    }
  }
#if QPERC_INVARIANTS_ENABLED
  // The discovery graph must be a DAG: walking parent links from any object
  // has to reach a root within |objects| steps, or there is a cycle and the
  // load would deadlock waiting for an object to discover itself.
  for (const auto& object : site.objects) {
    std::int64_t cursor = object.parent;
    std::size_t steps = 0;
    while (cursor >= 0) {
      QPERC_DCHECK_LT(steps, site.objects.size())
          << "cycle in the object dependency graph";
      cursor = site.objects[static_cast<std::size_t>(cursor)].parent;
      ++steps;
    }
  }
#endif
}

void PageLoader::start() {
  for (const std::uint32_t id : roots_) request_object(id);
}

void PageLoader::open_connection(std::uint32_t origin) {
  ++connecting_;
  simulator_.trace_event(trace::EventType::kConnectionOpened, trace::Endpoint::kClient,
                         /*flow=*/0, origin);
  auto session = session_factory_(net::ServerId{origin});
  session->set_on_established([this] { on_connection_established(); });
  session->start();
  auto [it, inserted] = sessions_.emplace(origin, std::move(session));
  // Flush objects that queued up while the pool slot was pending.
  if (const auto queued = queued_objects_.find(origin); queued != queued_objects_.end()) {
    for (const std::uint32_t id : queued->second) submit_to_session(*it->second, id);
    queued_objects_.erase(queued);
  }
}

void PageLoader::on_connection_established() {
  if (connecting_ > 0) --connecting_;
  while (connecting_ < kMaxConcurrentConnecting && !waiting_origins_.empty()) {
    const std::uint32_t origin = waiting_origins_.front();
    waiting_origins_.erase(waiting_origins_.begin());
    open_connection(origin);
  }
}

void PageLoader::dispatch(std::uint32_t id) {
  const std::uint32_t origin = site_.objects[id].origin;
  if (const auto it = sessions_.find(origin); it != sessions_.end()) {
    submit_to_session(*it->second, id);
    return;
  }
  // No session yet: queue the object; the first object for an origin also
  // claims a connection-pool slot (or joins the wait list).
  const bool origin_pending = queued_objects_.contains(origin);
  queued_objects_[origin].push_back(simulator_.arena(), id);
  if (origin_pending) return;
  if (connecting_ < kMaxConcurrentConnecting) {
    open_connection(origin);  // flushes this origin's queue
  } else {
    waiting_origins_.push_back(origin);
  }
}

void PageLoader::submit_to_session(http::Session& session, std::uint32_t id) {
  const web::WebObject& object = site_.objects[id];
  http::Request request;
  request.object_id = id;
  request.request_bytes = 380;
  request.response_header_bytes = 140;
  request.response_body_bytes = object.bytes;
  request.priority = request_priority(object);
  // Real origin servers answer with a spread of first-byte latencies; the
  // jitter also desynchronizes multi-origin response bursts.
  request.server_think_time =
      from_seconds(0.001 + std::min(rng_.exponential(0.006), 0.040));
  session.submit(request, [this](std::uint32_t oid, std::uint64_t body, bool complete) {
    on_progress(oid, body, complete);
  });
}

void PageLoader::request_object(std::uint32_t id) {
  const web::WebObject& requested = site_.objects[id];
  QPERC_DCHECK(requested.parent < 0 ||
               states_[static_cast<std::size_t>(requested.parent)].requested)
      << "object requested before its discovering parent";
  ObjectState& state = states_[id];
  if (state.requested) return;
  state.requested = true;
  if (simulator_.trace() != nullptr) {
    const web::WebObject& object = site_.objects[id];
    simulator_.trace_event(trace::EventType::kObjectRequested, trace::Endpoint::kClient,
                           /*flow=*/0, id, object.bytes, object.origin);
  }
  dispatch(id);
}

void PageLoader::on_progress(std::uint32_t id, std::uint64_t body_bytes, bool complete) {
  ObjectState& state = states_[id];
  state.body_delivered = std::max(state.body_delivered, body_bytes);
  check_discoveries(id);
  if (complete && !state.complete) on_object_complete(id);
}

void PageLoader::check_discoveries(std::uint32_t parent_id) {
  const ObjectState& parent_state = states_[parent_id];
  const web::WebObject& parent = site_.objects[parent_id];
  for (const std::uint32_t child_id : children_[parent_id]) {
    if (states_[child_id].requested) continue;
    const web::WebObject& child = site_.objects[child_id];
    const auto threshold = static_cast<std::uint64_t>(
        child.discovery_fraction * static_cast<double>(parent.bytes));
    if (parent_state.body_delivered >= threshold ||
        (parent_state.complete && parent_state.body_delivered >= parent.bytes)) {
      states_[child_id].requested = true;  // claim now; submit after parse delay
      simulator_.schedule_in(child.parse_delay, [this, child_id] {
        states_[child_id].requested = false;
        request_object(child_id);
      });
    }
  }
}

void PageLoader::on_object_complete(std::uint32_t id) {
  ObjectState& state = states_[id];
  QPERC_DCHECK(!state.complete) << "object completed twice";
  QPERC_DCHECK_GE(state.body_delivered, site_.objects[id].bytes)
      << "object completed before its body was fully delivered";
  state.complete = true;
  state.complete_at = simulator_.now();
  ++completed_objects_;
  QPERC_DCHECK_LE(completed_objects_, site_.objects.size());
  page_load_end_ = std::max(page_load_end_, state.complete_at);
  if (simulator_.trace() != nullptr) {
    simulator_.trace_event(trace::EventType::kObjectComplete, trace::Endpoint::kClient,
                           /*flow=*/0, id, site_.objects[id].bytes, completed_objects_);
  }
  check_discoveries(id);
}

PageLoadResult PageLoader::result() const {
  PageLoadResult result;
  result.connections_opened = static_cast<std::uint32_t>(sessions_.size());
  result.object_complete_at.assign(site_.objects.size(), kNoTime);
  result.object_body_delivered.assign(site_.objects.size(), 0);
  for (const auto& object : site_.objects) {
    result.object_body_delivered[object.id] = states_[object.id].body_delivered;
  }

  // First paint: the document plus every render-blocking resource.
  SimTime first_paint{0};
  bool paintable = true;
  for (const auto& object : site_.objects) {
    const ObjectState& state = states_[object.id];
    if (state.complete) result.object_complete_at[object.id] = state.complete_at;
    if (object.render_blocking || object.type == web::ObjectType::kHtml) {
      if (!state.complete) {
        paintable = false;
      } else {
        first_paint = std::max(first_paint, state.complete_at);
      }
    }
  }

  // Render events: weights realize at completion, but never before first paint.
  // Scratch map from the trial arena: result() runs once per trial and its
  // node churn would otherwise be the hot path's last heap consumer.
  std::map<SimTime, double, std::less<SimTime>,
           ArenaAllocator<std::pair<const SimTime, double>>>
      weight_at{ArenaAllocator<std::pair<const SimTime, double>>(simulator_.arena())};
  double total_weight = 0.0;
  for (const auto& object : site_.objects) {
    total_weight += object.render_weight;
    const ObjectState& state = states_[object.id];
    if (!state.complete || object.render_weight <= 0.0) continue;
    if (!paintable) continue;  // nothing rendered yet at all
    const SimTime effective = std::max(state.complete_at, first_paint);
    weight_at[effective] += object.render_weight;
  }

  double cumulative = 0.0;
  for (const auto& [time, weight] : weight_at) {
    cumulative += weight;
    result.vc_curve.push_back(
        VcSample{time, total_weight > 0.0 ? cumulative / total_weight : 1.0});
  }

  const bool done = completed_objects_ == site_.objects.size();
  result.metrics = compute_metrics(result.vc_curve,
                                   done ? SimDuration{page_load_end_}
                                        : SimDuration{simulator_.now()},
                                   done);
  for (const auto& [origin, session] : sessions_) result.transport += session->stats();
  return result;
}

PageLoadResult load_page(sim::Simulator& simulator, const web::Website& site,
                         PageLoader::SessionFactory factory, Rng rng,
                         SimDuration time_cap, std::uint64_t max_events) {
  PageLoader loader(simulator, site, std::move(factory), rng);
  loader.start();
  StopReason stop = StopReason::kTimeCap;
  const SimTime deadline = simulator.now() + time_cap;
  const std::uint64_t events_at_start = simulator.events_processed();
  while (!loader.finished() && simulator.now() < deadline) {
    const std::uint64_t spent = simulator.events_processed() - events_at_start;
    if (spent >= max_events) {
      stop = StopReason::kEventBudget;  // report progress so far
      break;
    }
    if (simulator.pending_events() == 0) {
      // Nothing can fire again. Idle straight to the deadline, where the
      // 200 ms steps below would have carried the clock anyway.
      stop = StopReason::kDeadlock;
      simulator.run_until(deadline, max_events - spent);
      break;
    }
    const SimTime next = std::min(deadline, simulator.now() + milliseconds(200));
    simulator.run_until(next, max_events - spent);
  }
  if (loader.finished()) stop = StopReason::kFinished;
  simulator.trace_event(trace::EventType::kPageFinished, trace::Endpoint::kClient,
                        /*flow=*/0, loader.completed_objects(), /*bytes=*/0,
                        loader.finished() ? 1 : 0);
  PageLoadResult result = loader.result();
  result.stop = stop;
  return result;
}

}  // namespace qperc::browser
