// Determinism and shard-aggregation tests for campaigns: identical
// results for every threads/shard-size combination, and sharded merges that
// match a serial flat-loop reference (the contract at the top of
// fi/campaign.hpp).
#include <atomic>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "fi/suite.hpp"
#include "lang/compile.hpp"

namespace onebit::fi {
namespace {

using stats::Outcome;

const char* const kGuineaPig = R"MC(
int a[24];
int seed = 5;
int rnd() { seed = (seed * 1103515245 + 12345) & 2147483647; return seed; }
int main() {
  for (int i = 0; i < 24; i++) { a[i] = rnd() % 512; }
  int s = 0;
  for (int i = 0; i < 24; i++) { s = (s * 33 + a[i]) & 1048575; }
  print_s("chk=");
  print_i(s);
  print_c(10);
  return 0;
}
)MC";

constexpr std::size_t kExperiments = 240;

class CampaignDeterminismFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    workload_ = std::make_unique<Workload>(lang::compileMiniC(kGuineaPig));
  }

  static CampaignConfig baseConfig() {
    CampaignConfig config;
    config.model = FaultModel::multiBitTemporal(FaultDomain::RegisterWrite, 3, WinSize::fixed(2));
    config.experiments = kExperiments;
    config.seed = 0xd5e7e2414157ULL;
    return config;
  }

  /// Serial flat-loop reference: the pre-sharding aggregation semantics.
  CampaignResult flatLoopReference(const CampaignConfig& config) const {
    CampaignResult ref;
    ref.config = config;
    const std::uint64_t candidates =
        workload_->candidates(config.model.domain);
    for (std::size_t i = 0; i < config.experiments; ++i) {
      const FaultPlan plan =
          FaultPlan::forExperiment(config.model, candidates, config.seed, i);
      const ExperimentResult r = runExperiment(*workload_, plan);
      ref.counts.add(r.outcome);
      const unsigned bucket = std::min(r.activations, kMaxActivationBucket);
      ++ref.activationHist[static_cast<std::size_t>(r.outcome)][bucket];
    }
    return ref;
  }

  /// One-cell suite over baseConfig() under `schedule`.
  [[nodiscard]] CampaignSuite suite(const SuiteConfig& schedule) const {
    const CampaignConfig config = baseConfig();
    CampaignSuite s(schedule);
    s.addCell("cell", *workload_, config.model, config.experiments,
              config.seed);
    return s;
  }

  std::unique_ptr<Workload> workload_;
};

TEST_F(CampaignDeterminismFixture,
       IdenticalResultsForAllThreadAndShardSizeCombinations) {
  const CampaignResult ref = flatLoopReference(baseConfig());
  ASSERT_EQ(ref.counts.total(), kExperiments);

  for (const std::size_t threads : {1u, 2u, 8u}) {
    for (const std::size_t shardSize : {std::size_t{1}, std::size_t{64},
                                        kExperiments}) {
      const CampaignResult r =
          runCampaign(*workload_, baseConfig(),
                      SuiteConfig{.threads = threads, .shardSize = shardSize});
      EXPECT_EQ(r.counts, ref.counts)
          << "threads=" << threads << " shardSize=" << shardSize;
      EXPECT_EQ(r.activationHist, ref.activationHist)
          << "threads=" << threads << " shardSize=" << shardSize;
    }
  }
}

TEST_F(CampaignDeterminismFixture, AutoShardSizeMatchesExplicitSharding) {
  // shardSize = 0 → heuristic
  const CampaignResult a =
      runCampaign(*workload_, baseConfig(), SuiteConfig{.threads = 4});
  const CampaignResult ref = flatLoopReference(baseConfig());
  EXPECT_EQ(a.counts, ref.counts);
  EXPECT_EQ(a.activationHist, ref.activationHist);
}

TEST_F(CampaignDeterminismFixture, RepeatedRunsAreBitIdentical) {
  const CampaignSuite s = suite(SuiteConfig{.threads = 8, .shardSize = 16});
  const CampaignResult a = s.run().front();
  const CampaignResult b = s.run().front();
  EXPECT_EQ(a.counts, b.counts);
  EXPECT_EQ(a.activationHist, b.activationHist);
}

TEST_F(CampaignDeterminismFixture, MergedShardTalliesEqualFinalResult) {
  stats::OutcomeCounts mergedFromShards;
  std::atomic<std::size_t> shardsSeen{0};
  std::size_t shardCount = 0;
  CampaignSuite s = suite(SuiteConfig{.threads = 4, .shardSize = 32});
  s.onProgress([&](const SuiteProgress& p) {
    // Callbacks are serialized, so plain merge is safe here.
    mergedFromShards.merge(p.shardCounts);
    EXPECT_EQ(p.shardCounts.total(), p.shardExperiments);
    ++shardsSeen;
    shardCount = p.shardCount;
  });
  const CampaignResult r = s.run().front();

  EXPECT_EQ(shardCount, (kExperiments + 31) / 32);
  EXPECT_EQ(shardsSeen.load(), shardCount);
  EXPECT_EQ(mergedFromShards, r.counts);
  EXPECT_EQ(r.counts, flatLoopReference(baseConfig()).counts);
}

TEST_F(CampaignDeterminismFixture, ProgressReportsEveryShardExactlyOnce) {
  // shardSize 1: maximum shard count, one experiment per shard.
  CampaignSuite s = suite(SuiteConfig{.threads = 8, .shardSize = 1});
  std::vector<int> hits(kExperiments, 0);
  std::size_t lastCompleted = 0;
  s.onProgress([&](const SuiteProgress& p) {
    ASSERT_LT(p.shardIndex, hits.size());
    ++hits[p.shardIndex];
    EXPECT_EQ(p.shardCount, kExperiments);
    EXPECT_EQ(p.shardExperiments, 1u);
    EXPECT_EQ(p.firstExperiment, p.shardIndex);
    EXPECT_EQ(p.cellTotalExperiments, kExperiments);
    EXPECT_GT(p.cellCompletedExperiments, lastCompleted);
    lastCompleted = p.cellCompletedExperiments;
  });
  (void)s.run();
  for (const int h : hits) EXPECT_EQ(h, 1);
  EXPECT_EQ(lastCompleted, kExperiments);
}

TEST_F(CampaignDeterminismFixture, ZeroExperimentsYieldEmptyResult) {
  bool progressFired = false;
  CampaignSuite s;
  s.addCell("empty", *workload_, baseConfig().model, 0, baseConfig().seed);
  s.onProgress([&](const SuiteProgress&) { progressFired = true; });
  const CampaignResult r = s.run().front();
  EXPECT_EQ(r.counts.total(), 0u);
  EXPECT_FALSE(progressFired);
}

TEST_F(CampaignDeterminismFixture, OversizedShardIsClampedToCampaign) {
  EXPECT_EQ(resolveShardSize(kExperiments, kExperiments * 10), kExperiments);
  std::size_t shardCount = 0;
  CampaignSuite s = suite(SuiteConfig{.shardSize = kExperiments * 10});
  s.onProgress([&](const SuiteProgress& p) { shardCount = p.shardCount; });
  const CampaignResult r = s.run().front();
  EXPECT_EQ(shardCount, 1u);
  EXPECT_EQ(r.counts, flatLoopReference(baseConfig()).counts);
}

TEST_F(CampaignDeterminismFixture, MaxShardSizeDoesNotOverflowShardCount) {
  // shardSize == SIZE_MAX must not wrap `experiments + shardSize - 1` to a
  // shard count of 0 (which would silently run zero experiments).
  std::size_t shardCount = 0;
  CampaignSuite s = suite(
      SuiteConfig{.shardSize = std::numeric_limits<std::size_t>::max()});
  s.onProgress([&](const SuiteProgress& p) { shardCount = p.shardCount; });
  EXPECT_EQ(s.run().front().counts.total(), kExperiments);
  EXPECT_EQ(shardCount, 1u);
}

TEST(CampaignHistogram, MergeHistogramAccumulatesElementWise) {
  ActivationHistogram a{};
  ActivationHistogram b{};
  a[0][0] = 3;
  a[2][5] = 7;
  b[0][0] = 4;
  b[4][kMaxActivationBucket] = 9;
  mergeHistogram(a, b);
  EXPECT_EQ(a[0][0], 7u);
  EXPECT_EQ(a[2][5], 7u);
  EXPECT_EQ(a[4][kMaxActivationBucket], 9u);
  EXPECT_EQ(a[1][1], 0u);
}

}  // namespace
}  // namespace onebit::fi
