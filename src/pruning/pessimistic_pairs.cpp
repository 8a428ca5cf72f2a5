#include "pruning/pessimistic_pairs.hpp"

#include <algorithm>
#include <utility>

#include "util/rng.hpp"

namespace onebit::pruning {

std::vector<fi::CampaignConfig> gridCampaigns(
    fi::FaultDomain technique, std::size_t experimentsPerCampaign,
    std::uint64_t seed, unsigned flipWidth) {
  std::vector<fi::CampaignConfig> configs;
  std::uint64_t campaignIdx = 0;
  for (fi::FaultModel spec : fi::multiRegisterCampaigns(technique)) {
    spec.flipWidth = flipWidth;
    fi::CampaignConfig config;
    config.model = spec;
    config.experiments = experimentsPerCampaign;
    config.seed = util::hashCombine(seed, campaignIdx++);
    configs.push_back(config);
  }
  return configs;
}

PessimisticPairResult selectPessimisticPair(std::vector<CampaignSdc> all) {
  PessimisticPairResult out;
  out.all = std::move(all);
  for (const CampaignSdc& c : out.all) {
    if (c.model.isSingleBit()) {
      out.singleSdc = c.sdc;
      continue;
    }
    if (!out.hasBest || c.sdc.fraction > out.bestSdc.fraction) {
      out.hasBest = true;
      out.bestSdc = c.sdc;
      out.bestModel = c.model;
    }
  }
  // Until the caller re-validates, the (biased) grid argmax is the best
  // available estimate.
  out.validatedBestSdc = out.bestSdc;
  return out;
}

fi::CampaignConfig validationCampaign(const fi::FaultModel& bestModel,
                                      std::size_t experimentsPerCampaign,
                                      std::uint64_t seed,
                                      std::size_t validationFactor) {
  fi::CampaignConfig config;
  config.model = bestModel;
  config.experiments =
      experimentsPerCampaign * std::max<std::size_t>(1, validationFactor);
  config.seed = util::hashCombine(seed ^ 0x5eedbeefULL, 0xfeedULL);
  return config;
}

}  // namespace onebit::pruning
