#include "runner/grid.hpp"

namespace qperc::runner {

void GridAxes::validate() const {
  check_axis(sites, "sites");
  check_axis(protocols, "protocols");
  check_axis(networks, "networks");
  if (runs == 0) throw std::invalid_argument("grid has runs == 0");
  if (shard_count == 0) throw std::invalid_argument("grid shard count must be >= 1");
  if (shard_index >= shard_count) {
    throw std::invalid_argument("grid shard index out of range (want 0.." +
                                std::to_string(shard_count - 1) + ", got " +
                                std::to_string(shard_index) + ")");
  }
}

}  // namespace qperc::runner
