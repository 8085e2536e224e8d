#include "measure.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <iomanip>
#include <iostream>

namespace qperc::bench {

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double position = q * static_cast<double>(samples.size() - 1);
  const auto lower = static_cast<std::size_t>(position);
  const std::size_t upper = std::min(lower + 1, samples.size() - 1);
  const double fraction = position - static_cast<double>(lower);
  return samples[lower] + (samples[upper] - samples[lower]) * fraction;
}

void Digest::add(std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash_ ^= (value >> (8 * i)) & 0xffu;
    hash_ *= 1099511628211ull;
  }
}

void Digest::add(double value) { add(std::bit_cast<std::uint64_t>(value)); }

void Digest::add(std::string_view bytes) {
  for (const char c : bytes) {
    hash_ ^= static_cast<unsigned char>(c);
    hash_ *= 1099511628211ull;
  }
}

namespace {

void add_page(Digest& d, const browser::PageLoadResult& r) {
  const auto ns = [](SimDuration t) { return static_cast<std::uint64_t>(t.count()); };
  const auto& m = r.metrics;
  d.add(ns(m.first_visual_change));
  d.add(ns(m.last_visual_change));
  d.add(ns(m.page_load_time));
  d.add(ns(m.visual_complete_85));
  d.add(ns(m.speed_index));
  d.add(std::uint64_t{m.finished});
  d.add(std::uint64_t{r.vc_curve.size()});
  for (const auto& sample : r.vc_curve) {
    d.add(ns(sample.time));
    d.add(sample.completeness);
  }
  const auto& t = r.transport;
  for (const std::uint64_t field :
       {t.data_packets_sent, t.retransmissions, t.timeouts, t.spurious_timeouts,
        t.tail_probes, t.congestion_events, t.bytes_sent, t.bytes_delivered, t.acks_sent,
        t.handshake_packets, t.handshake_retransmissions}) {
    d.add(field);
  }
  for (const SimTime at : r.object_complete_at) d.add(ns(at));
  for (const std::uint64_t bytes : r.object_body_delivered) d.add(bytes);
  d.add(std::uint64_t{r.connections_opened});
}

}  // namespace

std::uint64_t digest_of(const browser::PageLoadResult& result) {
  Digest d;
  add_page(d, result);
  return d.value();
}

std::uint64_t digest_of(const browser::PageLoadResult& result,
                        const core::ContentionOutcome& contention) {
  Digest d;
  add_page(d, result);
  for (const auto& flow : contention.flows) {
    d.add(flow.protocol);
    d.add(flow.bytes_delivered);
    d.add(flow.goodput_bps);
    d.add(flow.retransmissions);
  }
  d.add(contention.peak_queue_bytes);
  d.add(contention.queue_drops);
  d.add(static_cast<std::uint64_t>(contention.measured.count()));
  return d.value();
}

bool bytes_conserved(const web::Website& site, const browser::PageLoadResult& result) {
  if (result.object_body_delivered.size() != site.objects.size() ||
      result.object_complete_at.size() != site.objects.size()) {
    return false;
  }
  for (std::size_t i = 0; i < site.objects.size(); ++i) {
    const std::uint64_t delivered = result.object_body_delivered[i];
    const bool complete = result.object_complete_at[i] != kNoTime;
    if (complete ? delivered != site.objects[i].bytes : delivered > site.objects[i].bytes) {
      return false;
    }
  }
  return true;
}

void Report::add(std::string name, double value, std::string unit, std::size_t samples) {
  if (!std::isfinite(value)) check(false, "metric " + name + " is finite");
  metrics_.push_back(
      Metric{std::move(name), std::isfinite(value) ? value : 0.0, std::move(unit), samples});
}

void Report::check(bool ok, std::string_view what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failed_ <= 20) std::cerr << "qperc_bench: CHECK FAILED: " << what << "\n";
}

void Report::note(std::string key, std::string value) {
  notes_.emplace_back(std::move(key), std::move(value));
}

void Report::print(std::ostream& os) const {
  for (const auto& [key, value] : notes_) os << key << ": " << value << "\n";
  os << "checks: " << attempted_ - failed_ << "/" << attempted_ << " passed\n";
  std::size_t width = 0;
  for (const auto& m : metrics_) width = std::max(width, m.name.size());
  for (const auto& m : metrics_) {
    os << "  " << std::left << std::setw(static_cast<int>(width)) << m.name << std::right
       << "  " << std::setw(16) << std::setprecision(6) << m.value << " " << std::left
       << std::setw(6) << m.unit << std::right << "  n=" << m.samples << "\n";
  }

  char number[40];
  os << "{\"correct\": " << (failed_ == 0 ? "true" : "false")
     << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const auto& m = metrics_[i];
    std::snprintf(number, sizeof number, "%.17g", m.value);
    os << (i == 0 ? "" : ", ") << "\"" << m.name << "\": {\"value\": " << number
       << ", \"unit\": \"" << m.unit << "\", \"samples\": " << m.samples << "}";
  }
  os << "}}\n";
}

}  // namespace qperc::bench
