// RQ1 / Fig. 3: how many errors are activated before a program crashes when
// we intend to inject 30 (max-MBF = 30), aggregated over all win-size values.
#pragma once

#include <cstdint>
#include <vector>

#include "fi/campaign.hpp"

namespace onebit::pruning {

struct ActivationBuckets {
  // Crashed (Detected) experiments, bucketed by activated error count as in
  // Fig. 3's discussion: <=5, 6..10, >10.
  std::uint64_t upToFive = 0;
  std::uint64_t sixToTen = 0;
  std::uint64_t moreThanTen = 0;

  [[nodiscard]] std::uint64_t total() const noexcept {
    return upToFive + sixToTen + moreThanTen;
  }
  [[nodiscard]] double fracUpToFive() const noexcept;
  [[nodiscard]] double fracSixToTen() const noexcept;
  [[nodiscard]] double fracMoreThanTen() const noexcept;
};

/// The campaigns one activation study sweeps: max-MBF = 30 for every Table I
/// win-size value, with per-campaign seeds derived from `seed` by position.
/// Run them yourself (e.g. batched on a fi::CampaignSuite with every other
/// program's campaigns) and fold each result in with accumulateActivations.
std::vector<fi::CampaignConfig> activationCampaigns(
    fi::FaultDomain technique, std::size_t experimentsPerCampaign,
    std::uint64_t seed, unsigned flipWidth = 64);

/// Fold one campaign's crashed-experiment activation histogram into buckets.
void accumulateActivations(ActivationBuckets& buckets,
                           const fi::ActivationHistogram& hist) noexcept;

}  // namespace onebit::pruning
