// Figure 3 — rating-study agreement between the three subject groups over
// the lab-tested conditions, ordered by the lab cohort's mean vote. Lab and
// Microworker votes get means with 99% confidence intervals; the Internet
// group's votes are not normally distributed, so its median is shown —
// exactly the treatment in the paper.
#include <algorithm>
#include <iostream>
#include <map>

#include "bench/common.hpp"
#include "stats/stats.hpp"

namespace qperc {
namespace {

std::string condition_label(const bench::RatingSiteKey& key) {
  return std::get<0>(key) + "/" + std::get<1>(key) + "/" +
         std::string(net::to_string(std::get<2>(key))) + "/" +
         std::string(study::to_string(std::get<3>(key)));
}

}  // namespace
}  // namespace qperc

int main() {
  using namespace qperc;
  bench::banner("Figure 3: rating-study agreement across subject groups",
                "Paper: uWorker means fall within the lab's 99% CIs; the Internet\n"
                "group deviates, is not normally distributed, and gets excluded (§4.2).");

  bench::CachedLibrary cached;
  // The lab study uses only its five domains, the first five catalog sites.
  cached.produce(web::lab_study_domains().size());
  auto& library = cached.get();

  struct GroupVotes {
    std::map<bench::RatingSiteKey, std::vector<double>> votes_by_site;
    double avg_seconds_per_video;
  };
  const auto run_group = [&](study::Group group) {
    auto spec = bench::paper_study(study::StudyKind::kRating, group);
    spec.sites = web::lab_study_domains().size();
    if (group == study::Group::kInternet) {
      spec.videos_work = 6;
      spec.videos_free_time = 6;
      spec.videos_plane = 3;
    }
    const auto votes = bench::run_study(library, spec).votes;
    return GroupVotes{bench::group_votes<std::vector<double>>(votes, bench::rating_site_key),
                      bench::avg_seconds_per_video(votes)};
  };

  const auto lab = run_group(study::Group::kLab);
  const auto uworker = run_group(study::Group::kMicroworker);
  const auto internet = run_group(study::Group::kInternet);

  // Conditions = lab-rated (site, protocol, network, context) keys.
  struct Row {
    std::string label;
    double lab_mean;
    double lab_ci;
    double uw_mean;
    double uw_ci;
    double inet_median;
    std::size_t lab_n, uw_n, inet_n;
    bool uw_within_lab_ci;
  };
  std::vector<Row> rows;
  for (const auto& [key, lab_votes] : lab.votes_by_site) {
    if (lab_votes.size() < 3) continue;
    const auto lab_ci = stats::mean_confidence_interval(lab_votes, 0.99);
    Row row;
    row.label = condition_label(key);
    row.lab_mean = lab_ci.center;
    row.lab_ci = lab_ci.half_width;
    row.lab_n = lab_votes.size();
    const auto uw_it = uworker.votes_by_site.find(key);
    if (uw_it == uworker.votes_by_site.end() || uw_it->second.size() < 3) continue;
    const auto uw_ci = stats::mean_confidence_interval(uw_it->second, 0.99);
    row.uw_mean = uw_ci.center;
    row.uw_ci = uw_ci.half_width;
    row.uw_n = uw_it->second.size();
    const auto inet_it = internet.votes_by_site.find(key);
    row.inet_n = inet_it == internet.votes_by_site.end() ? 0 : inet_it->second.size();
    row.inet_median =
        inet_it == internet.votes_by_site.end() ? 0.0 : stats::median(inet_it->second);
    row.uw_within_lab_ci =
        stats::ConfidenceInterval{row.lab_mean, row.lab_ci}.overlaps(
            stats::ConfidenceInterval{row.uw_mean, row.uw_ci});
    rows.push_back(row);
  }
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.lab_mean < b.lab_mean; });

  TextTable table({"Condition (site/protocol/network/context)", "Lab mean±CI99",
                   "uWorker mean±CI99", "Internet median", "n(lab/uW/inet)", "uW in CI"});
  for (const auto& row : rows) {
    table.add_row({row.label,
                   fmt_fixed(row.lab_mean, 1) + " ± " + fmt_fixed(row.lab_ci, 1),
                   fmt_fixed(row.uw_mean, 1) + " ± " + fmt_fixed(row.uw_ci, 1),
                   fmt_fixed(row.inet_median, 1),
                   std::to_string(row.lab_n) + "/" + std::to_string(row.uw_n) + "/" +
                       std::to_string(row.inet_n),
                   row.uw_within_lab_ci ? "yes" : "NO"});
  }
  table.print(std::cout);

  std::size_t agree = 0;
  for (const auto& row : rows) agree += row.uw_within_lab_ci;
  std::cout << "\nConditions: " << rows.size() << "; uWorker within lab CI99 on "
            << fmt_percent(rows.empty() ? 0.0
                                        : static_cast<double>(agree) /
                                              static_cast<double>(rows.size()))
            << " of them.\n";

  // Normality per group: Jarque–Bera over condition-centered residuals,
  // subsampled to a common size so the comparison has equal power (the
  // paper treats lab and uWorker votes as normal and reports the Internet
  // group's median because its distribution cannot be estimated).
  const auto pooled_residuals = [&](const GroupVotes& result) {
    std::vector<double> centered;
    for (const auto& [key, votes] : result.votes_by_site) {
      if (votes.size() < 5) continue;
      const double m = stats::mean(votes);
      for (const double vote : votes) centered.push_back(vote - m);
    }
    constexpr std::size_t kSample = 800;
    if (centered.size() <= kSample) return centered;
    std::vector<double> sampled;
    const double stride = static_cast<double>(centered.size()) / kSample;
    for (std::size_t i = 0; i < kSample; ++i) {
      sampled.push_back(centered[static_cast<std::size_t>(i * stride)]);
    }
    return sampled;
  };
  TextTable group_table({"Group", "votes", "JB p (n=800 residuals)", "looks normal",
                         "avg s/video (paper: 21.4/17.7/19.2)"});
  const auto add_group = [&](const char* name, const GroupVotes& result) {
    std::size_t n = 0;
    for (const auto& [key, votes] : result.votes_by_site) n += votes.size();
    const auto residuals = pooled_residuals(result);
    const auto jb = stats::jarque_bera(residuals);
    group_table.add_row({name, std::to_string(n), fmt_fixed(jb.p_value, 4),
                         jb.looks_normal() ? "yes" : "no",
                         fmt_fixed(result.avg_seconds_per_video, 1)});
  };
  add_group("Lab", lab);
  add_group("uWorker", uworker);
  add_group("Internet", internet);
  std::cout << "\n";
  group_table.print(std::cout);
  std::cout << "\nShape check: lab and uWorker votes look normal for most conditions,\n"
               "while the Internet group (straight-lining volunteers) fails far more\n"
               "often — so it is reported as a median and excluded, as in the paper.\n";
  return 0;
}
