// Tests for the pruning analyses (RQ1-RQ5).
#include <cmath>

#include <gtest/gtest.h>

#include "fi/campaign.hpp"
#include "fi/suite.hpp"
#include "lang/compile.hpp"
#include "pruning/activation_study.hpp"
#include "pruning/pessimistic_pairs.hpp"
#include "pruning/error_space.hpp"
#include "pruning/transition_study.hpp"

namespace onebit::pruning {
namespace {

const char* const kWorkload = R"MC(
int a[24];
int seed = 5;
int rnd() { seed = (seed * 1103515245 + 12345) & 2147483647; return seed; }
int main() {
  for (int i = 0; i < 24; i++) { a[i] = rnd() % 100; }
  int s = 0;
  for (int i = 0; i < 24; i++) { s = s + a[i] * a[i]; }
  print_s("s=");
  print_i(s);
  print_c(10);
  return 0;
}
)MC";

class PruningFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    mod_ = lang::compileMiniC(kWorkload);
    workload_ = std::make_unique<fi::Workload>(mod_);
  }
  /// Run `configs` as one fi::CampaignSuite on the fixture's workload.
  std::vector<fi::CampaignResult> runSuite(
      const std::vector<fi::CampaignConfig>& configs) const {
    fi::CampaignSuite suite;
    for (const fi::CampaignConfig& config : configs) {
      suite.addCell(config.model.label(), *workload_, config.model,
                    config.experiments, config.seed);
    }
    return suite.run();
  }

  /// The activation study: fold every activationCampaigns() result.
  ActivationBuckets activations(fi::FaultDomain technique, std::size_t n,
                                std::uint64_t seed) const {
    ActivationBuckets buckets;
    for (const fi::CampaignResult& r :
         runSuite(activationCampaigns(technique, n, seed))) {
      accumulateActivations(buckets, r.activationHist);
    }
    return buckets;
  }

  ir::Module mod_;
  std::unique_ptr<fi::Workload> workload_;
};

// --- ActivationBuckets --------------------------------------------------------

TEST(ActivationBuckets, FractionsSumToOne) {
  ActivationBuckets b;
  b.upToFive = 70;
  b.sixToTen = 20;
  b.moreThanTen = 10;
  EXPECT_DOUBLE_EQ(
      b.fracUpToFive() + b.fracSixToTen() + b.fracMoreThanTen(), 1.0);
}

TEST(ActivationBuckets, EmptyIsAllZero) {
  const ActivationBuckets b;
  EXPECT_EQ(b.total(), 0u);
  EXPECT_EQ(b.fracUpToFive(), 0.0);
}

TEST_F(PruningFixture, ActivationStudyCountsOnlyCrashes) {
  const ActivationBuckets b =
      activations(fi::FaultDomain::RegisterWrite, 40, 123);
  // Every bucketed experiment crashed; totals are bounded by the experiment
  // count (9 win-sizes x 40 experiments).
  EXPECT_LE(b.total(), 9u * 40u);
  // A program with address arithmetic must produce some crashes.
  EXPECT_GT(b.total(), 0u);
}

TEST_F(PruningFixture, ActivationStudyIsDeterministic) {
  const ActivationBuckets a = activations(fi::FaultDomain::RegisterRead, 25, 9);
  const ActivationBuckets b = activations(fi::FaultDomain::RegisterRead, 25, 9);
  EXPECT_EQ(a.upToFive, b.upToFive);
  EXPECT_EQ(a.sixToTen, b.sixToTen);
  EXPECT_EQ(a.moreThanTen, b.moreThanTen);
}

// --- PessimisticPairs ------------------------------------------------------------

TEST_F(PruningFixture, PessimisticPairCoversFullGrid) {
  // gridCampaigns -> selectPessimisticPair -> validationCampaign, with a
  // validation factor of 1.
  const std::vector<fi::CampaignConfig> grid =
      gridCampaigns(fi::FaultDomain::RegisterWrite, 30, 11);
  const std::vector<fi::CampaignResult> results = runSuite(grid);
  std::vector<CampaignSdc> all;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    all.push_back({grid[i].model, results[i].sdc()});
  }
  PessimisticPairResult r = selectPessimisticPair(std::move(all));
  ASSERT_TRUE(r.hasBest);
  r.validatedBestSdc =
      runSuite({validationCampaign(r.bestModel, 30, 11, 1)}).front().sdc();
  EXPECT_EQ(r.all.size(), 81u);  // single + 8 win x 10 mbf
  EXPECT_FALSE(r.bestModel.isSingleBit());
  EXPECT_GT(r.validatedBestSdc.n, 0u);
  // The best multi-bit SDC is the max over all multi-bit campaigns.
  for (const auto& c : r.all) {
    if (c.model.isSingleBit()) continue;
    EXPECT_LE(c.sdc.fraction, r.bestSdc.fraction + 1e-12);
  }
}

TEST_F(PruningFixture, SingleIsPessimisticDefinition) {
  PessimisticPairResult r;
  r.singleSdc = stats::proportionCI(30, 100);
  r.validatedBestSdc = stats::proportionCI(25, 100);
  EXPECT_TRUE(r.singleIsPessimistic());
  r.validatedBestSdc = stats::proportionCI(50, 100);
  EXPECT_FALSE(r.singleIsPessimistic());
  // Within one percentage point counts as pessimistic ("almost the same").
  r.singleSdc = stats::proportionCI(295, 1000);
  r.validatedBestSdc = stats::proportionCI(300, 1000);
  EXPECT_TRUE(r.singleIsPessimistic());
}

// --- TransitionStudy ---------------------------------------------------------------

TEST_F(PruningFixture, TransitionMatrixSumsToExperimentCount) {
  const fi::FaultModel multi =
      fi::FaultModel::multiBitTemporal(fi::FaultDomain::RegisterWrite, 3, fi::WinSize::fixed(1));
  const TransitionStudyResult r =
      transitionStudy(*workload_, multi, 120, 2024);
  std::uint64_t total = 0;
  for (unsigned from = 0; from < stats::kOutcomeCount; ++from) {
    total += r.countFrom(static_cast<stats::Outcome>(from));
  }
  EXPECT_EQ(total, 120u);
}

TEST_F(PruningFixture, TransitionRowMarginalsMatchSingleBitCampaign) {
  // The single-bit side of the paired study uses exactly the same plans as a
  // single-bit campaign with the same seed, so row marginals must agree.
  const std::uint64_t seed = 555;
  const std::size_t n = 100;
  const fi::FaultModel multi =
      fi::FaultModel::multiBitTemporal(fi::FaultDomain::RegisterRead, 2, fi::WinSize::fixed(4));
  const TransitionStudyResult t = transitionStudy(*workload_, multi, n, seed);

  fi::CampaignConfig config;
  config.model = fi::FaultModel::singleBit(fi::FaultDomain::RegisterRead);
  config.experiments = n;
  config.seed = seed;
  const fi::CampaignResult c = fi::runCampaign(*workload_, config);

  for (unsigned o = 0; o < stats::kOutcomeCount; ++o) {
    const auto outcome = static_cast<stats::Outcome>(o);
    EXPECT_EQ(t.countFrom(outcome), c.counts.count(outcome))
        << stats::outcomeName(outcome);
  }
}

TEST_F(PruningFixture, TransitionLikelihoodsAreProbabilities) {
  const fi::FaultModel multi =
      fi::FaultModel::multiBitTemporal(fi::FaultDomain::RegisterWrite, 3, fi::WinSize::fixed(1));
  const TransitionStudyResult r = transitionStudy(*workload_, multi, 80, 77);
  EXPECT_GE(r.transitionI(), 0.0);
  EXPECT_LE(r.transitionI(), 1.0);
  EXPECT_GE(r.transitionII(), 0.0);
  EXPECT_LE(r.transitionII(), 1.0);
}

TEST(TransitionResult, LikelihoodFormulas) {
  TransitionStudyResult r;
  const auto det = static_cast<std::size_t>(stats::Outcome::Detected);
  const auto ben = static_cast<std::size_t>(stats::Outcome::Benign);
  const auto sdc = static_cast<std::size_t>(stats::Outcome::SDC);
  r.transitions[det][sdc] = 1;
  r.transitions[det][det] = 9;
  r.transitions[ben][sdc] = 3;
  r.transitions[ben][ben] = 7;
  EXPECT_DOUBLE_EQ(r.transitionI(), 0.1);
  EXPECT_DOUBLE_EQ(r.transitionII(), 0.3);
}

TEST(ErrorSpace, SingleBitSize) {
  EXPECT_DOUBLE_EQ(ErrorSpace::singleBitSize(1000, 32), 32000.0);
  EXPECT_DOUBLE_EQ(ErrorSpace::singleBitSize(0, 64), 0.0);
}

TEST(ErrorSpace, MultiBitLogGrowsWithM) {
  const double m2 = ErrorSpace::log10MultiBitSize(1000, 32, 2);
  const double m3 = ErrorSpace::log10MultiBitSize(1000, 32, 3);
  const double m10 = ErrorSpace::log10MultiBitSize(1000, 32, 10);
  EXPECT_LT(m2, m3);
  EXPECT_LT(m3, m10);
  // n = 32000, so n^2 has log10 ~ 9.01.
  EXPECT_NEAR(m2, 2.0 * std::log10(32000.0), 0.01);
}

TEST(ErrorSpace, FullSpaceIsAstronomical) {
  // d*b = 32000 -> log10 of the full space ~ 32000 * 4.5 ~ 144,000 digits.
  const double full = ErrorSpace::log10FullMultiBitSize(1000, 32);
  EXPECT_GT(full, 100000.0);
}

TEST(ErrorSpace, DegenerateInputsAreSafe) {
  EXPECT_EQ(ErrorSpace::log10MultiBitSize(0, 64, 10), 0.0);
  EXPECT_EQ(ErrorSpace::log10MultiBitSize(5, 64, 1), 0.0);
}

TEST(ErrorSpace, Layer3Fraction) {
  EXPECT_DOUBLE_EQ(ErrorSpace::layer3PrunedFraction(0.3), 0.7);
  EXPECT_DOUBLE_EQ(ErrorSpace::layer3PrunedFraction(1.0), 0.0);
}

TEST(TransitionResult, EmptyIsZero) {
  const TransitionStudyResult r;
  EXPECT_EQ(r.transitionI(), 0.0);
  EXPECT_EQ(r.transitionII(), 0.0);
}

}  // namespace
}  // namespace onebit::pruning
