#include "web/website.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <stdexcept>

namespace qperc::web {

std::string_view to_string(ObjectType type) {
  switch (type) {
    case ObjectType::kHtml: return "html";
    case ObjectType::kCss: return "css";
    case ObjectType::kScript: return "script";
    case ObjectType::kImage: return "image";
    case ObjectType::kFont: return "font";
    case ObjectType::kOther: return "other";
  }
  return "?";
}

std::uint64_t Website::total_bytes() const {
  return std::accumulate(objects.begin(), objects.end(), std::uint64_t{0},
                         [](std::uint64_t sum, const WebObject& o) { return sum + o.bytes; });
}

std::uint32_t Website::contacted_origins() const {
  std::set<std::uint32_t> origins;
  for (const auto& object : objects) origins.insert(object.origin);
  return static_cast<std::uint32_t>(origins.size());
}

namespace {

/// Draws an origin index: the main origin hosts most first-party content,
/// the rest spreads over third parties with a mild power-law tilt.
std::uint32_t draw_origin(Rng& rng, std::uint32_t origins, bool first_party_biased) {
  if (origins <= 1) return 0;
  if (first_party_biased && rng.bernoulli(0.6)) return 0;
  const double u = rng.uniform();
  const double tilted = std::pow(u, 1.6);  // favour low indices
  return static_cast<std::uint32_t>(tilted * origins) % origins;
}

}  // namespace

Website generate_site(const SiteSpec& spec, Rng rng) {
  Website site;
  site.name = spec.name;
  site.origin_count = std::max<std::uint32_t>(spec.origins, 1);

  const std::uint32_t n = std::max<std::uint32_t>(spec.object_count, 3);
  const std::uint64_t total_bytes = spec.total_kilobytes * 1024;

  // Object-type mix for the non-HTML objects, roughly matching HTTP-Archive
  // page composition: a few stylesheets and scripts, mostly images.
  const auto css_count = std::max<std::uint32_t>(1, n / 12);
  const auto script_count = std::max<std::uint32_t>(1, n / 6);
  const auto font_count = n >= 20 ? std::max<std::uint32_t>(1, n / 25) : 0;

  site.objects.reserve(n);

  // Root HTML document: ~4-10% of total bytes, clamped to sane page sizes.
  WebObject html;
  html.id = 0;
  html.type = ObjectType::kHtml;
  html.origin = 0;
  html.bytes = std::clamp<std::uint64_t>(
      static_cast<std::uint64_t>(total_bytes * rng.uniform(0.04, 0.10)), 8 * 1024,
      256 * 1024);
  html.parent = -1;
  html.render_blocking = true;
  html.priority = 0;
  site.objects.push_back(html);

  // Byte budget for subresources, split by a weight draw per object.
  const std::uint64_t sub_budget = total_bytes > html.bytes ? total_bytes - html.bytes : 0;
  std::vector<double> weights;
  std::vector<ObjectType> types;
  for (std::uint32_t i = 1; i < n; ++i) {
    ObjectType type;
    if (i <= css_count) {
      type = ObjectType::kCss;
    } else if (i <= css_count + script_count) {
      type = ObjectType::kScript;
    } else if (i <= css_count + script_count + font_count) {
      type = ObjectType::kFont;
    } else {
      type = rng.bernoulli(0.92) ? ObjectType::kImage : ObjectType::kOther;
    }
    types.push_back(type);
    // Heavy-tailed byte shares: images dominate, scripts moderate.
    const double scale = type == ObjectType::kImage    ? 1.0
                         : type == ObjectType::kScript ? 0.7
                         : type == ObjectType::kCss    ? 0.3
                         : type == ObjectType::kFont   ? 0.5
                                                       : 0.4;
    weights.push_back(rng.lognormal(0.0, 1.0) * scale);
  }
  const double weight_sum =
      std::max(std::accumulate(weights.begin(), weights.end(), 0.0), 1e-9);

  for (std::uint32_t i = 1; i < n; ++i) {
    const ObjectType type = types[i - 1];
    WebObject object;
    object.id = i;
    object.type = type;
    object.bytes = std::max<std::uint64_t>(
        static_cast<std::uint64_t>(static_cast<double>(sub_budget) * weights[i - 1] /
                                   weight_sum),
        600);

    switch (type) {
      case ObjectType::kCss:
        object.origin = draw_origin(rng, site.origin_count, true);
        object.parent = 0;
        object.discovery_fraction = rng.uniform(0.10, 0.30);  // <head>
        object.render_blocking = true;
        object.priority = 0;
        break;
      case ObjectType::kScript:
        object.origin = draw_origin(rng, site.origin_count, false);
        object.parent = 0;
        object.discovery_fraction = rng.uniform(0.15, 0.60);
        object.render_blocking = rng.bernoulli(0.4);  // sync head scripts
        object.priority = 1;
        break;
      case ObjectType::kFont:
        object.origin = draw_origin(rng, site.origin_count, false);
        object.parent = 1;  // referenced from the first stylesheet
        object.discovery_fraction = rng.uniform(0.8, 1.0);
        object.priority = 1;
        break;
      case ObjectType::kImage:
      case ObjectType::kOther:
      case ObjectType::kHtml:
        // Heavy media comes from the first-party origin or a small CDN set;
        // the long tail of third-party hosts serves small objects (beacons,
        // widgets) — matching how real pages distribute bytes over origins.
        if (object.bytes > 30 * 1024 && site.origin_count > 3) {
          object.origin = rng.bernoulli(0.5)
                              ? 0
                              : static_cast<std::uint32_t>(rng.uniform_int(1, 3));
        } else {
          object.origin = draw_origin(rng, site.origin_count, false);
        }
        object.parent = 0;
        object.discovery_fraction = rng.uniform(0.30, 0.95);  // body parse order
        object.priority = 3;
        break;
    }

    // A share of objects is discovered late, behind a script (depth 2).
    // Only scripts that precede this object can be its parent (no cycles).
    const std::uint32_t eligible_scripts =
        std::min<std::uint32_t>(script_count, i > css_count + 1 ? i - css_count - 1 : 0);
    if (type != ObjectType::kCss && eligible_scripts > 0 &&
        rng.bernoulli(spec.late_discovery_share)) {
      object.parent = static_cast<std::int32_t>(
          1 + css_count + rng.uniform_int(0, eligible_scripts - 1));
      object.discovery_fraction = 1.0;
      object.parse_delay = from_seconds(rng.uniform(0.003, 0.030));
      object.render_blocking = false;
    }

    object.parse_delay += from_seconds(rng.uniform(0.0005, 0.004));
    site.objects.push_back(object);
  }

  // Deferred tail: a per-site share of non-critical objects loads after the
  // document (analytics, lazy below-the-fold media). They stretch PLT with
  // little visual impact, decoupling PLT from perceived speed (Figure 6).
  // The tail share and its firing delays vary widely and independently of
  // the visible page: ad auctions, analytics retries, and lazy loaders fire
  // seconds after the content is up.
  const double tail_share = rng.uniform(0.05, 0.50);
  for (auto& object : site.objects) {
    if (object.id == 0 || object.render_blocking) continue;
    if (object.type == ObjectType::kCss || object.type == ObjectType::kFont) continue;
    if (!rng.bernoulli(tail_share)) continue;
    object.deferred = true;
    object.parent = 0;
    object.discovery_fraction = 1.0;  // fires once the document is done
    object.parse_delay = from_seconds(0.05 + std::min(rng.exponential(0.9), 6.0));
    object.priority = 3;
  }

  // Render weights: first paint (HTML + render-blocking set) carries ~35%,
  // in-viewport images ~55% proportional to sqrt(bytes) (pixel-area proxy),
  // other visible content ~8%; the deferred tail carries ~2% (below-the-fold
  // media) or nothing at all (beacons). Weights are normalized to sum to 1.
  double image_basis = 0.0;
  double other_basis = 0.0;
  double tail_basis = 0.0;
  double blocking_count = 0.0;
  for (auto& object : site.objects) {
    if (object.render_blocking || object.type == ObjectType::kHtml) {
      blocking_count += 1.0;
    } else if (object.deferred) {
      // 60% of the tail is invisible machinery; the rest barely shows.
      if (rng.bernoulli(0.6)) continue;
      object.render_weight = 1.0;  // marker; scaled below
      tail_basis += 1.0;
    } else if (object.type == ObjectType::kImage) {
      image_basis += std::sqrt(static_cast<double>(object.bytes));
    } else {
      other_basis += std::sqrt(static_cast<double>(object.bytes));
    }
  }
  double total = 0.0;
  for (auto& object : site.objects) {
    if (object.render_blocking || object.type == ObjectType::kHtml) {
      object.render_weight = 0.35 / std::max(blocking_count, 1.0);
    } else if (object.deferred) {
      object.render_weight =
          object.render_weight > 0.0 && tail_basis > 0.0 ? 0.02 / tail_basis : 0.0;
    } else if (object.type == ObjectType::kImage && image_basis > 0.0) {
      object.render_weight =
          0.55 * std::sqrt(static_cast<double>(object.bytes)) / image_basis;
    } else if (other_basis > 0.0) {
      object.render_weight =
          0.08 * std::sqrt(static_cast<double>(object.bytes)) / other_basis;
    }
    total += object.render_weight;
  }
  if (total > 0.0) {
    for (auto& object : site.objects) object.render_weight /= total;
  }
  return site;
}

const std::vector<SiteSpec>& study_site_specs() {
  // 36 sites. Shapes for paper-named sites follow §4.4's prose; the rest
  // fill out the diversity grid of [23]: sizes 100 KB..6 MB, 10..200
  // objects, 1..40 contacted origins.
  static const std::vector<SiteSpec> specs = {
      // The five lab-study domains (§4.1), "diverse in website size".
      {.name = "wikipedia.org", .object_count = 24, .total_kilobytes = 550, .origins = 2},
      {.name = "gov.uk", .object_count = 30, .total_kilobytes = 360, .origins = 2},
      {.name = "etsy.com", .object_count = 120, .total_kilobytes = 3100, .origins = 24},
      {.name = "demorgen.be", .object_count = 150, .total_kilobytes = 4200, .origins = 34},
      {.name = "nytimes.com", .object_count = 160, .total_kilobytes = 4600, .origins = 30},
      // Sites §4.4 names with shape hints.
      {.name = "spotify.com", .object_count = 42, .total_kilobytes = 420, .origins = 26},
      {.name = "apache.org", .object_count = 16, .total_kilobytes = 210, .origins = 3},
      {.name = "google.com", .object_count = 18, .total_kilobytes = 380, .origins = 4},
      {.name = "nature.com", .object_count = 85, .total_kilobytes = 1600, .origins = 20},
      {.name = "w3.org", .object_count = 24, .total_kilobytes = 310, .origins = 2},
      {.name = "wordpress.com", .object_count = 22, .total_kilobytes = 290, .origins = 8},
      {.name = "gravatar.com", .object_count = 12, .total_kilobytes = 160, .origins = 3},
      // Remaining catalog: Alexa/Moz-style fillers across the diversity grid.
      {.name = "youtube.com", .object_count = 95, .total_kilobytes = 2400, .origins = 12},
      {.name = "facebook.com", .object_count = 60, .total_kilobytes = 1800, .origins = 9},
      {.name = "amazon.com", .object_count = 170, .total_kilobytes = 4100, .origins = 28},
      {.name = "twitter.com", .object_count = 55, .total_kilobytes = 1300, .origins = 10},
      {.name = "reddit.com", .object_count = 110, .total_kilobytes = 2900, .origins = 22},
      {.name = "ebay.com", .object_count = 140, .total_kilobytes = 3400, .origins = 26},
      {.name = "cnn.com", .object_count = 190, .total_kilobytes = 5600, .origins = 38},
      {.name = "bbc.com", .object_count = 105, .total_kilobytes = 2700, .origins = 18},
      {.name = "imdb.com", .object_count = 130, .total_kilobytes = 3200, .origins = 16},
      {.name = "stackoverflow.com", .object_count = 35, .total_kilobytes = 700, .origins = 6},
      {.name = "github.com", .object_count = 28, .total_kilobytes = 620, .origins = 3},
      {.name = "linkedin.com", .object_count = 70, .total_kilobytes = 1900, .origins = 14},
      {.name = "instagram.com", .object_count = 48, .total_kilobytes = 1500, .origins = 7},
      {.name = "pinterest.com", .object_count = 90, .total_kilobytes = 2600, .origins = 15},
      {.name = "apple.com", .object_count = 52, .total_kilobytes = 2100, .origins = 5},
      {.name = "microsoft.com", .object_count = 64, .total_kilobytes = 1700, .origins = 11},
      {.name = "yahoo.com", .object_count = 125, .total_kilobytes = 3800, .origins = 32},
      {.name = "weather.com", .object_count = 145, .total_kilobytes = 4000, .origins = 36},
      {.name = "booking.com", .object_count = 115, .total_kilobytes = 3000, .origins = 19},
      {.name = "imgur.com", .object_count = 75, .total_kilobytes = 5900, .origins = 8},
      {.name = "medium.com", .object_count = 40, .total_kilobytes = 900, .origins = 9},
      {.name = "paypal.com", .object_count = 26, .total_kilobytes = 480, .origins = 4},
      {.name = "dropbox.com", .object_count = 32, .total_kilobytes = 760, .origins = 5},
      {.name = "archive.org", .object_count = 14, .total_kilobytes = 130, .origins = 1},
  };
  return specs;
}

std::vector<Website> study_catalog(std::uint64_t seed) {
  std::vector<Website> catalog;
  const Rng master(seed);
  for (const auto& spec : study_site_specs()) {
    catalog.push_back(generate_site(spec, master.fork(spec.name)));
  }
  return catalog;
}

const Website& site_by_name(const std::vector<Website>& catalog, const std::string& name) {
  for (const auto& site : catalog) {
    if (site.name == name) return site;
  }
  throw std::invalid_argument("unknown site '" + name + "' — see `qperc catalog`");
}

const std::vector<std::string>& lab_study_domains() {
  static const std::vector<std::string> domains = {"wikipedia.org", "gov.uk", "etsy.com",
                                                   "demorgen.be", "nytimes.com"};
  return domains;
}

}  // namespace qperc::web
