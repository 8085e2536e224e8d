#include "core/trial_context.hpp"

#include <optional>
#include <utility>

#include "core/cross_traffic.hpp"
#include "http/session.hpp"
#include "net/emulated_network.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace qperc::core {

browser::PageLoadResult TrialContext::run(const TrialSpec& spec,
                                          ContentionOutcome* contention) {
  // Cold throw helpers rather than inline `throw`: run() is a hot-path root
  // for scripts/analyze_hotpath.py, and an inline throw would plant
  // __cxa_throw plus a std::string build directly in this function's text.
  if (spec.site == nullptr) check::throw_invalid_argument("TrialSpec: site is null");
  if (spec.protocol == nullptr) check::throw_invalid_argument("TrialSpec: protocol is null");
  spec.profile.validate();
  spec.contention.validate();

  // Discard the previous trial (arena blocks and container capacity are
  // kept) before any of this trial's state is built. Its arena-backed
  // containers were this function's locals and are gone, so none can
  // release storage into this trial's free lists.
  simulator_.reset();
  simulator_.set_trace(spec.trace);
  Rng rng(spec.seed);
  net::EmulatedNetwork network(simulator_, spec.profile, rng.fork("network"),
                               spec.contention);

  // Cross traffic is created before the page load so its flow ids, endpoints,
  // and t=0 start events all precede the browser's — and not at all when
  // contention is disabled, keeping the single-flow path draw-for-draw
  // identical to the paper topology.
  std::optional<CrossTraffic> cross;
  if (spec.contention.enabled()) {
    cross.emplace(simulator_, network, spec.contention, rng.fork("contention"));
  }

  // The configs are hoisted so the factory lambdas can capture them by
  // reference: three pointers fit SmallFunction's inline buffer, so building
  // the factory costs no allocation. Both locals outlive load_page below.
  const ProtocolConfig& protocol = *spec.protocol;
  const tcp::TcpConfig tcp_config =
      protocol.transport != Transport::kQuic ? protocol.tcp_config() : tcp::TcpConfig{};
  const quic::QuicConfig quic_config =
      protocol.transport == Transport::kQuic ? protocol.quic_config() : quic::QuicConfig{};
  browser::PageLoader::SessionFactory factory;
  switch (protocol.transport) {
    case Transport::kTcp:
      factory = [this, &network, &tcp_config](net::ServerId origin) {
        return http::make_h2_session(simulator_, network, origin, tcp_config);
      };
      break;
    case Transport::kQuic:
      factory = [this, &network, &quic_config](net::ServerId origin) {
        return http::make_quic_session(simulator_, network, origin, quic_config);
      };
      break;
    case Transport::kTcpH1:
      factory = [this, &network, &tcp_config](net::ServerId origin) {
        return http::make_h1_session(simulator_, network, origin, tcp_config);
      };
      break;
  }
  browser::PageLoadResult result =
      browser::load_page(simulator_, *spec.site, std::move(factory), rng.fork("browser"),
                         spec.time_cap, spec.max_events);

  if (contention != nullptr && cross.has_value()) {
    const SimTime end = simulator_.now();
    contention->flows.clear();
    contention->flows.reserve(cross->flow_count());
    for (std::uint32_t i = 0; i < cross->flow_count(); ++i) {
      const CrossTrafficSource& source = cross->source(i);
      ContentionOutcome::Flow flow;
      flow.protocol = source.protocol_label();
      flow.bytes_delivered = source.bytes_delivered();
      flow.goodput_bps = source.goodput_bps(end);
      flow.retransmissions = source.transport_stats().retransmissions;
      contention->flows.push_back(flow);
    }
    contention->peak_queue_bytes = network.downlink_stats().max_queue_bytes;
    contention->queue_capacity_bytes = network.downlink().queue_capacity_bytes();
    contention->queue_drops = network.downlink_stats().drops_queue_full +
                              network.uplink_stats().drops_queue_full;
    contention->measured = end - SimTime{0};
  }
  return result;
}

}  // namespace qperc::core
