#include "runner/campaign.hpp"

#include "core/protocol.hpp"
#include "web/website.hpp"

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

CampaignSpec stimulus_spec(std::uint64_t seed, std::uint32_t runs, std::size_t sites,
                           const net::LinkConditions& conditions) {
  CampaignSpec spec;
  for (const auto& site : web::study_site_specs()) {
    if (spec.sites.size() >= sites) break;
    spec.sites.push_back(site.name);
  }
  for (const auto& protocol : core::paper_protocols()) spec.protocols.push_back(protocol.name);
  for (const auto& profile : net::all_profiles()) spec.networks.push_back(profile.kind);
  spec.runs = runs;
  spec.seed = seed;
  spec.conditions = conditions;
  return spec;
}

}  // namespace qperc::runner
