#include "cc/factory.hpp"

#include "cc/bbr.hpp"
#include "cc/cubic.hpp"
#include "cc/reno.hpp"

namespace qperc::cc {

std::string_view to_string(CcKind kind) {
  switch (kind) {
    case CcKind::kCubic: return "Cubic";
    case CcKind::kBbr: return "BBRv1";
    case CcKind::kReno: return "NewReno";
  }
  return "?";
}

std::unique_ptr<CongestionController> make_congestion_controller(
    CcKind kind, std::uint64_t initial_window_segments, std::uint64_t mss,
    bool bbr_lt_bw) {
  switch (kind) {
    case CcKind::kCubic: {
      CubicConfig config;
      config.initial_window_segments = initial_window_segments;
      config.mss = mss;
      return std::make_unique<Cubic>(config);
    }
    case CcKind::kBbr: {
      BbrConfig config;
      config.initial_window_segments = initial_window_segments;
      config.mss = mss;
      config.lt_bw_enabled = bbr_lt_bw;
      return std::make_unique<Bbr>(config);
    }
    case CcKind::kReno: {
      RenoConfig config;
      config.initial_window_segments = initial_window_segments;
      config.mss = mss;
      return std::make_unique<Reno>(config);
    }
  }
  return nullptr;
}

}  // namespace qperc::cc
