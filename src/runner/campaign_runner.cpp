#include "runner/campaign_runner.hpp"

#include <stdexcept>

#include "core/protocol.hpp"
#include "core/video.hpp"
#include "net/profile.hpp"

namespace qperc::runner {

GridReport<CampaignTask> run_campaign(const CampaignSpec& spec, ResultStore& store,
                                      const GridOptions& options) {
  return run_grid(spec, store,
                  ResultStore::identity_for(spec.seed, spec.runs, spec.conditions), options,
                  [&spec](const CampaignTask& task, const web::Website& site,
                          net::TransportStats& ledger) {
                    net::NetworkProfile profile = net::profile_for(task.network);
                    spec.conditions.apply(profile);
                    return core::produce_video(site, core::protocol_by_name(task.protocol),
                                               profile, spec.runs, task.base_seed, &ledger);
                  });
}

std::size_t adopt_results(const ResultStore& store, core::VideoLibrary& library) {
  if (store.identity() != ResultStore::identity_for(library.catalog_seed(), library.runs(),
                                                    library.conditions())) {
    throw std::invalid_argument(
        "result store (seed, runs, link conditions) does not match the library");
  }
  std::size_t adopted = 0;
  store.for_each([&](const core::Video& video) {
    if (library.insert(video)) ++adopted;
  });
  return adopted;
}

}  // namespace qperc::runner
