// Dumps a qlog-style structured trace of a small page load — handshake,
// transport, recovery, HTTP, browser, and link events — as JSON Lines on
// stdout, with a summary on stderr: transport counts from the
// net::TransportStats ledger, the rest from trace-only counters.
//
//   ./trace_flow [site] [protocol] [network] > trace.jsonl
#include <iostream>

#include "core/protocol.hpp"
#include "core/trial.hpp"
#include "net/profile.hpp"
#include "trace/counters.hpp"
#include "trace/jsonl_sink.hpp"
#include "web/website.hpp"

namespace {

/// Streams JSONL to `os` while folding every event into TrialCounters.
class SummarizingSink final : public qperc::trace::TraceSink {
 public:
  explicit SummarizingSink(std::ostream& os) : jsonl_(os) {}
  void on_event(const qperc::trace::Event& event) override {
    jsonl_.on_event(event);
    counters_.observe(event);
  }
  [[nodiscard]] const qperc::trace::TrialCounters& counters() const { return counters_; }
  [[nodiscard]] std::uint64_t events_written() const { return jsonl_.events_written(); }

 private:
  qperc::trace::JsonlSink jsonl_;
  qperc::trace::TrialCounters counters_;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace qperc;
  const std::string site_name = argc > 1 ? argv[1] : "apache.org";
  const std::string protocol_name = argc > 2 ? argv[2] : "QUIC";
  const std::string network_name = argc > 3 ? argv[3] : "LTE";

  const auto catalog = web::study_catalog(7);
  const web::Website* site = nullptr;
  for (const auto& candidate : catalog) {
    if (candidate.name == site_name) site = &candidate;
  }
  if (site == nullptr) {
    std::cerr << "unknown site\n";
    return 1;
  }
  const net::NetworkProfile* profile = &net::all_profiles()[1];
  for (const auto& candidate : net::all_profiles()) {
    if (candidate.name == network_name) profile = &candidate;
  }
  const auto& protocol = core::protocol_by_name(protocol_name);

  SummarizingSink sink(std::cout);
  const auto result =
      core::run_trial(core::TrialSpec(*site, protocol, *profile, /*seed=*/42).with_trace(&sink));

  const trace::TrialCounters& counters = sink.counters();
  std::cerr << site->name << " / " << protocol.name << " / " << profile->name << ": PLT "
            << result.metrics.plt_ms() << " ms, " << sink.events_written() << " events\n"
            << "handshake: " << result.transport.handshake_packets
            << " packets, first completed in "
            << to_millis(counters.first_handshake_duration) << " ms\n"
            << "recovery: " << result.transport.retransmissions << " retransmissions, "
            << result.transport.timeouts << " timeouts, " << counters.spurious_losses
            << " spurious losses\n"
            << "link: " << counters.link_deliveries << " deliveries, "
            << counters.queue_drops << " queue drops, " << counters.random_loss_drops
            << " random-loss drops\n";
  return 0;
}
