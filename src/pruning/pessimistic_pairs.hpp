// RQ2-RQ4 / Table III: which (max-MBF, win-size) pair yields the highest
// (pessimistic) SDC percentage, and does the single bit-flip model already
// provide a conservative upper bound?
//
// The analysis is split into phases so drivers can batch the grid campaigns
// of many programs/techniques onto one fi::CampaignSuite:
//   1. gridCampaigns()        — the (spec, seed) plan of the sweep
//   2. selectPessimisticPair() — pick baseline + argmax from the results
//   3. validationCampaign()   — the independent re-validation of the argmax
// The Fig. 4 / Table III renderer (analytics/figures.cpp) composes them.
#pragma once

#include <cstdint>
#include <vector>

#include "fi/campaign.hpp"
#include "fi/grid.hpp"

namespace onebit::pruning {

struct CampaignSdc {
  fi::FaultModel model;
  stats::Proportion sdc;
};

struct PessimisticPairResult {
  /// SDC of the single bit-flip campaign.
  stats::Proportion singleSdc;
  /// The multi-bit campaign with the highest SDC percentage.
  fi::FaultModel bestModel;
  stats::Proportion bestSdc;
  /// True when the grid contained at least one multi-bit campaign (so
  /// bestModel/bestSdc are meaningful).
  bool hasBest = false;
  /// Unbiased re-estimate of bestModel's SDC from an independent, larger
  /// sample. Selecting the argmax over dozens of noisy campaign estimates
  /// inflates `bestSdc` (winner's curse) at small campaign sizes; the paper
  /// avoids this with 10,000-experiment campaigns, we avoid it by
  /// re-validating the selected pair with a fresh seed.
  stats::Proportion validatedBestSdc;
  /// All campaign results (for plotting Fig. 4 / Fig. 5 series).
  std::vector<CampaignSdc> all;

  /// RQ2: single model is pessimistic (or within one percentage point, the
  /// paper's "almost the same" criterion), judged on the unbiased
  /// validation estimate.
  [[nodiscard]] bool singleIsPessimistic() const noexcept {
    return singleSdc.fraction + 0.01 >= validatedBestSdc.fraction;
  }
};

/// Phase 1: the pessimistic-pair grid for one technique —
/// fi::multiRegisterCampaigns(t) with `flipWidth` applied and per-campaign
/// seeds derived from `seed` by grid position.
std::vector<fi::CampaignConfig> gridCampaigns(
    fi::FaultDomain technique, std::size_t experimentsPerCampaign,
    std::uint64_t seed, unsigned flipWidth = 64);

/// Phase 2: pick the single-bit baseline and the highest-SDC multi-bit pair
/// from the grid results (one CampaignSdc per gridCampaigns() entry, same
/// order). validatedBestSdc is initialized to bestSdc; overwrite it with the
/// result of validationCampaign() for the unbiased estimate.
PessimisticPairResult selectPessimisticPair(std::vector<CampaignSdc> all);

/// Phase 3: the independent re-validation campaign for the selected pair
/// (`experimentsPerCampaign * validationFactor` experiments, fresh seed).
fi::CampaignConfig validationCampaign(const fi::FaultModel& bestModel,
                                      std::size_t experimentsPerCampaign,
                                      std::uint64_t seed,
                                      std::size_t validationFactor = 3);

}  // namespace onebit::pruning
