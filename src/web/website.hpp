// Website model: a dependency DAG of objects spread across origins.
//
// The paper replays 36 real sites chosen (via [23]) for high variation in
// object count, byte size, and multi-server nature. We cannot ship those
// recordings, so a deterministic generator produces 36 synthetic sites
// spanning the same diversity axes; sites named in the paper get shapes
// matching its prose (see DESIGN.md §1).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.hpp"
#include "util/time.hpp"

namespace qperc::web {

enum class ObjectType : std::uint8_t { kHtml, kCss, kScript, kImage, kFont, kOther };

[[nodiscard]] std::string_view to_string(ObjectType type);

struct WebObject {
  std::uint32_t id = 0;
  ObjectType type = ObjectType::kOther;
  /// Origin server index within the site (0 = main origin).
  std::uint32_t origin = 0;
  std::uint64_t bytes = 0;

  /// Discovery: the object becomes known once `discovery_fraction` of the
  /// parent's body bytes have arrived (progressive HTML parsing), plus
  /// `parse_delay` of parser/script time. parent == -1 => known at t0.
  std::int32_t parent = -1;
  double discovery_fraction = 0.0;
  SimDuration parse_delay{0};

  /// Render-blocking objects gate the first paint (head CSS, sync JS).
  bool render_blocking = false;
  /// Deferred tail content (analytics beacons, below-the-fold media): loads
  /// after the visible page, stretching PLT with little or no visual effect —
  /// the reason PLT correlates poorly with perception (Figure 6).
  bool deferred = false;
  /// Contribution to visual completeness, realized at completion time.
  double render_weight = 0.0;
  /// Browser scheduling priority (0 most urgent).
  std::uint8_t priority = 2;
};

struct Website {
  std::string name;
  std::uint32_t origin_count = 1;
  std::vector<WebObject> objects;

  [[nodiscard]] std::uint64_t total_bytes() const;
  [[nodiscard]] std::size_t object_count() const { return objects.size(); }
  /// Number of distinct origins actually referenced by objects.
  [[nodiscard]] std::uint32_t contacted_origins() const;
};

/// Shape parameters for the site generator.
struct SiteSpec {
  std::string name;
  std::uint32_t object_count = 50;
  std::uint64_t total_kilobytes = 1000;
  std::uint32_t origins = 5;
  /// Fraction of objects discovered late (depth-2: scripts, lazy content).
  double late_discovery_share = 0.15;
};

/// Generates one site; deterministic in (spec, seed).
[[nodiscard]] Website generate_site(const SiteSpec& spec, Rng rng);

/// The 36 study sites (paper: 40 minus 4 unreplayable/private, §3).
[[nodiscard]] const std::vector<SiteSpec>& study_site_specs();
[[nodiscard]] std::vector<Website> study_catalog(std::uint64_t seed);
/// The site named `name` in `catalog`; std::invalid_argument when there is
/// none.
[[nodiscard]] const Website& site_by_name(const std::vector<Website>& catalog,
                                          const std::string& name);

/// The five-domain subset used in the controlled lab study (§4.1).
[[nodiscard]] const std::vector<std::string>& lab_study_domains();

}  // namespace qperc::web
