// Measurement plumbing shared by every workload: host clocks, process CPU and
// peak RSS, order statistics, the FNV-1a result digest, and the Report that
// collects metrics and correctness checks and prints them.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "browser/page_loader.hpp"
#include "core/trial.hpp"

namespace qperc::bench {

using Clock = std::chrono::steady_clock;

/// Host nanoseconds since an arbitrary epoch (steady clock).
[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Process user + system CPU time, all threads, in seconds.
[[nodiscard]] double process_cpu_s();
/// Peak resident set size of the process so far, in MiB.
[[nodiscard]] double peak_rss_mb();
/// Heap allocations since process start, all threads (main.cpp owns the
/// counting operator new).
[[nodiscard]] std::uint64_t heap_allocations_so_far();

/// Linear-interpolation quantile (q in [0, 1]) of unsorted samples; 0 when empty.
[[nodiscard]] double quantile(std::vector<double> samples, double q);
[[nodiscard]] inline double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

/// 64-bit FNV-1a, fed field by field.
class Digest {
 public:
  void add(std::uint64_t value);
  void add(double value);
  void add(std::string_view bytes);
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ull;
};

/// Digest of every field of a page load: equal digests mean equal results.
[[nodiscard]] std::uint64_t digest_of(const browser::PageLoadResult& result);
/// Same, folding in the cross-traffic outcome of a contended trial.
[[nodiscard]] std::uint64_t digest_of(const browser::PageLoadResult& result,
                                      const core::ContentionOutcome& contention);

/// Byte conservation: every complete object delivered exactly its size, every
/// incomplete one at most that.
[[nodiscard]] bool bytes_conserved(const web::Website& site,
                                   const browser::PageLoadResult& result);

/// Collects named metrics and correctness checks for one workload run.
class Report {
 public:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::size_t samples = 0;
  };

  void add(std::string name, double value, std::string unit, std::size_t samples);
  /// Records one correctness check; a failure is also described on stderr.
  void check(bool ok, std::string_view what);
  /// Adds a free-form "key value" line to the printed header (build, digests).
  void note(std::string key, std::string value);

  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }

  /// Human-readable block: notes, then one row per metric (name, value, unit,
  /// sample count), then the machine-readable JSON object on the last line.
  void print(std::ostream& os) const;

 private:
  std::vector<std::pair<std::string, std::string>> notes_;
  std::vector<Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

}  // namespace qperc::bench
