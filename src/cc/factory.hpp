// Controller selection shared by both transports.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>

#include "cc/congestion_controller.hpp"

namespace qperc::cc {

enum class CcKind {
  kCubic,     // default for Linux TCP and gQUIC
  kBbr,       // BBRv1 (the Table-1 "+BBR" rows)
  kReno = 3,  // NewReno — classic AIMD baseline for ablations (2 is retired)
};

[[nodiscard]] std::string_view to_string(CcKind kind);

/// Builds a controller with the given initial window (in segments of `mss`).
/// `bbr_lt_bw` toggles BBRv1's long-term (policer) bandwidth estimation —
/// on by default as in Linux; ignored by the other controllers. Tests use
/// the off position as the "stock" baseline on policed links.
[[nodiscard]] std::unique_ptr<CongestionController> make_congestion_controller(
    CcKind kind, std::uint64_t initial_window_segments, std::uint64_t mss,
    bool bbr_lt_bw = true);

}  // namespace qperc::cc
