#include "pruning/activation_study.hpp"

#include "util/rng.hpp"

namespace onebit::pruning {

namespace {
double frac(std::uint64_t part, std::uint64_t total) noexcept {
  return total == 0 ? 0.0
                    : static_cast<double>(part) / static_cast<double>(total);
}
}  // namespace

double ActivationBuckets::fracUpToFive() const noexcept {
  return frac(upToFive, total());
}
double ActivationBuckets::fracSixToTen() const noexcept {
  return frac(sixToTen, total());
}
double ActivationBuckets::fracMoreThanTen() const noexcept {
  return frac(moreThanTen, total());
}

std::vector<fi::CampaignConfig> activationCampaigns(
    fi::FaultDomain technique, std::size_t experimentsPerCampaign,
    std::uint64_t seed, unsigned flipWidth) {
  std::vector<fi::CampaignConfig> configs;
  std::uint64_t campaignIdx = 0;
  for (const fi::WinSize& w : fi::FaultModel::paperWinSizes()) {
    fi::CampaignConfig config;
    config.model = fi::FaultModel::multiBitTemporal(technique, 30, w);
    config.model.flipWidth = flipWidth;
    config.experiments = experimentsPerCampaign;
    config.seed = util::hashCombine(seed, campaignIdx++);
    configs.push_back(config);
  }
  return configs;
}

void accumulateActivations(ActivationBuckets& buckets,
                           const fi::ActivationHistogram& hist) noexcept {
  const auto& crashed =
      hist[static_cast<std::size_t>(stats::Outcome::Detected)];
  for (unsigned k = 0; k <= fi::kMaxActivationBucket; ++k) {
    if (k <= 5) buckets.upToFive += crashed[k];
    else if (k <= 10) buckets.sixToTen += crashed[k];
    else buckets.moreThanTen += crashed[k];
  }
}

}  // namespace onebit::pruning
