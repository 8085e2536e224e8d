#include "runner/campaign.hpp"

namespace qperc::runner {

std::vector<CampaignTask> CampaignSpec::tasks() const {
  validate();
  std::vector<CampaignTask> result;
  std::size_t grid_index = 0;
  for (const auto& site : sites) {
    for (const auto& protocol : protocols) {
      for (const auto network : networks) {
        if (owns(grid_index)) {
          CampaignTask task;
          task.grid_index = grid_index;
          task.site = site;
          task.protocol = protocol;
          task.network = network;
          task.base_seed = core::condition_base_seed(seed, site, protocol, network);
          result.push_back(std::move(task));
        }
        ++grid_index;
      }
    }
  }
  return result;
}

}  // namespace qperc::runner
