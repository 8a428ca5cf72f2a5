// fi::CampaignSuite tests: suite-vs-solo bit-identity for every
// threads/shard-size combination, mixed-size cells, store record/resume
// through (and across) multi-cell suites and one-cell runCampaign() calls,
// the per-cell checkpoint cap, progress accounting, pruning that follows
// the workload's PrunePolicy, and the cost-ordered (longest cell first)
// shard scheduling across cells.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fi/campaign_store.hpp"
#include "fi/suite.hpp"
#include "lang/compile.hpp"

namespace onebit::fi {
namespace {

using stats::Outcome;

const char* const kAlpha = R"MC(
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

const char* const kBeta = R"MC(
int main() {
  int s = 1;
  for (int i = 1; i < 40; i++) { s = (s * i + 7) & 65535; }
  print_s("beta=");
  print_i(s);
  print_c(10);
  return 0;
}
)MC";

class CampaignSuiteFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    alpha_ = std::make_unique<Workload>(lang::compileMiniC(kAlpha));
    beta_ = std::make_unique<Workload>(lang::compileMiniC(kBeta));
  }

  /// The mixed-size cell set every test builds on: different workloads,
  /// specs, experiment counts, and seeds per cell.
  struct CellSpec {
    const Workload* workload;
    FaultModel model;
    std::size_t experiments;
    std::uint64_t seed;
  };

  [[nodiscard]] std::vector<CellSpec> mixedCells() const {
    return {
        {alpha_.get(), FaultModel::singleBit(FaultDomain::RegisterRead), 96, 0xaaa1},
        {alpha_.get(),
         FaultModel::multiBitTemporal(FaultDomain::RegisterWrite, 3, WinSize::fixed(2)), 240,
         0xaaa2},
        {beta_.get(), FaultModel::multiBitTemporal(FaultDomain::RegisterRead, 2, WinSize::fixed(0)),
         57, 0xbbb1},
        {beta_.get(), FaultModel::singleBit(FaultDomain::RegisterWrite), 10, 0xbbb2},
    };
  }

  /// Solo reference for one cell: a single-threaded runCampaign().
  [[nodiscard]] CampaignResult solo(const CellSpec& cell,
                                    SuiteConfig config = {.threads = 1}) const {
    return runCampaign(*cell.workload,
                       {cell.model, cell.experiments, cell.seed}, config);
  }

  static CampaignSuite makeSuite(const std::vector<CellSpec>& cells,
                                 SuiteConfig config) {
    CampaignSuite suite(config);
    for (std::size_t i = 0; i < cells.size(); ++i) {
      suite.addCell("cell" + std::to_string(i), *cells[i].workload,
                    cells[i].model, cells[i].experiments, cells[i].seed);
    }
    return suite;
  }

  std::unique_ptr<Workload> alpha_;
  std::unique_ptr<Workload> beta_;
};

TEST_F(CampaignSuiteFixture, SuiteMatchesSoloForAllThreadShardCombinations) {
  const std::vector<CellSpec> cells = mixedCells();
  std::vector<CampaignResult> refs;
  for (const CellSpec& cell : cells) refs.push_back(solo(cell));

  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    for (const std::size_t shardSize :
         {std::size_t{1}, std::size_t{64}, std::size_t{0}}) {  // 0 = auto
      SuiteConfig config;
      config.threads = threads;
      config.shardSize = shardSize;
      const std::vector<CampaignResult> results =
          makeSuite(cells, config).run();
      ASSERT_EQ(results.size(), cells.size());
      for (std::size_t i = 0; i < cells.size(); ++i) {
        EXPECT_EQ(results[i].counts, refs[i].counts)
            << "cell " << i << " threads=" << threads
            << " shardSize=" << shardSize;
        EXPECT_EQ(results[i].activationHist, refs[i].activationHist)
            << "cell " << i << " threads=" << threads
            << " shardSize=" << shardSize;
        EXPECT_EQ(results[i].completedExperiments, cells[i].experiments);
        EXPECT_TRUE(results[i].complete());
        EXPECT_EQ(results[i].resumedExperiments, 0u);
      }
    }
  }
}

TEST_F(CampaignSuiteFixture, ZeroExperimentCellIsTriviallyComplete) {
  std::vector<CellSpec> cells = mixedCells();
  cells.push_back({beta_.get(), FaultModel::singleBit(FaultDomain::RegisterRead), 0, 1});
  SuiteConfig config;
  config.threads = 4;
  const std::vector<CampaignResult> results = makeSuite(cells, config).run();
  ASSERT_EQ(results.size(), cells.size());
  EXPECT_EQ(results.back().counts.total(), 0u);
  EXPECT_TRUE(results.back().complete());
  EXPECT_EQ(results[0].counts, solo(cells[0]).counts);
}

TEST_F(CampaignSuiteFixture, StoreRecordsThroughSuiteAndResumesInBothModes) {
  const std::string path = ::testing::TempDir() + "suite_store_" +
                           std::to_string(::getpid()) + ".jsonl";
  std::remove(path.c_str());
  const std::vector<CellSpec> cells = mixedCells();

  SuiteConfig recordConfig;
  recordConfig.threads = 8;
  CampaignStore recordStore(path);
  recordConfig.record = &recordStore;
  const std::vector<CampaignResult> fresh =
      makeSuite(cells, recordConfig).run();

  // Resume the whole sweep through a NEW suite: every experiment must come
  // from the store and every cell must be bit-identical to the fresh run.
  CampaignStore reopened(path);
  reopened.load();
  SuiteConfig resumeConfig;
  resumeConfig.threads = 8;
  resumeConfig.resume = &reopened;
  const std::vector<CampaignResult> resumed =
      makeSuite(cells, resumeConfig).run();
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(resumed[i].resumedExperiments, cells[i].experiments);
    EXPECT_EQ(resumed[i].counts, fresh[i].counts);
    EXPECT_EQ(resumed[i].activationHist, fresh[i].activationHist);
  }

  // Cross-mode: a one-cell runCampaign() resumes cells a suite recorded —
  // store records do not depend on the cell mix.
  for (const CellSpec& cell : cells) {
    const CampaignResult r =
        solo(cell, SuiteConfig{.threads = 2, .resume = &reopened});
    EXPECT_EQ(r.resumedExperiments, cell.experiments);
    EXPECT_EQ(r.counts, solo(cell).counts);
  }
  std::remove(path.c_str());
}

TEST_F(CampaignSuiteFixture, SuiteResumesWhatSoloModeRecorded) {
  const std::string path = ::testing::TempDir() + "suite_store_solo_" +
                           std::to_string(::getpid()) + ".jsonl";
  std::remove(path.c_str());
  const std::vector<CellSpec> cells = mixedCells();
  {
    CampaignStore store(path);
    for (const CellSpec& cell : cells) {
      (void)solo(cell, SuiteConfig{.threads = 1, .record = &store});
    }
  }
  CampaignStore reopened(path);
  reopened.load();
  SuiteConfig config;
  config.threads = 8;
  config.resume = &reopened;
  const std::vector<CampaignResult> resumed = makeSuite(cells, config).run();
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(resumed[i].resumedExperiments, cells[i].experiments);
    EXPECT_EQ(resumed[i].counts, solo(cells[i]).counts);
  }
  std::remove(path.c_str());
}

TEST_F(CampaignSuiteFixture, MaxShardsCapsFreshShardsPerCell) {
  const std::vector<CellSpec> cells = mixedCells();
  SuiteConfig config;
  config.threads = 2;
  config.shardSize = 8;
  config.maxShards = 2;  // at most 16 fresh experiments per cell
  const std::vector<CampaignResult> results = makeSuite(cells, config).run();
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const std::size_t expected = std::min<std::size_t>(cells[i].experiments,
                                                       2 * 8);
    EXPECT_EQ(results[i].completedExperiments, expected) << "cell " << i;
    EXPECT_EQ(results[i].complete(), expected == cells[i].experiments);
    // The capped prefix equals the solo run's first shards: counts must
    // never exceed the solo totals (prefix property).
    EXPECT_LE(results[i].counts.total(), solo(cells[i]).counts.total());
  }
}

TEST_F(CampaignSuiteFixture, SuiteProgressAccountingIsExactAndMonotonic) {
  const std::vector<CellSpec> cells = mixedCells();
  SuiteConfig config;
  config.threads = 8;
  config.shardSize = 16;
  CampaignSuite suite = makeSuite(cells, config);

  std::size_t events = 0;
  std::size_t lastSuiteCompleted = 0;
  std::vector<std::size_t> perCell(cells.size(), 0);
  suite.onProgress([&](const SuiteProgress& p) {
    ++events;
    ASSERT_LT(p.cellIndex, cells.size());
    EXPECT_EQ(p.cellLabel, "cell" + std::to_string(p.cellIndex));
    EXPECT_EQ(p.cellTotalExperiments, cells[p.cellIndex].experiments);
    EXPECT_GT(p.cellCompletedExperiments, perCell[p.cellIndex]);
    perCell[p.cellIndex] = p.cellCompletedExperiments;
    EXPECT_LE(p.cellCompletedExperiments, p.cellTotalExperiments);
    EXPECT_GT(p.suiteCompletedExperiments, lastSuiteCompleted);
    lastSuiteCompleted = p.suiteCompletedExperiments;
    EXPECT_EQ(p.cellCount, cells.size());
    EXPECT_LE(p.completedCells, p.cellCount);
    EXPECT_FALSE(p.resumed);
  });
  (void)suite.run();

  EXPECT_GT(events, 0u);
  EXPECT_EQ(lastSuiteCompleted, suite.totalExperiments());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(perCell[i], cells[i].experiments);
  }
}

TEST_F(CampaignSuiteFixture, ProgressSeesCellLocalShardSnapshots) {
  const std::vector<CellSpec> cells = mixedCells();
  SuiteConfig config;
  config.threads = 4;
  config.shardSize = 8;
  CampaignSuite suite = makeSuite(cells, config);

  stats::OutcomeCounts merged;
  suite.onProgress([&](const SuiteProgress& p) {
    EXPECT_EQ(p.shardCounts.total(), p.shardExperiments);
    EXPECT_LE(p.cellCompletedExperiments, p.cellTotalExperiments);
    EXPECT_LE(p.completedShards, p.shardCount);
    merged.merge(p.shardCounts);
  });
  const std::vector<CampaignResult> results = suite.run();

  stats::OutcomeCounts total;
  for (const CampaignResult& r : results) total.merge(r.counts);
  EXPECT_EQ(merged, total);
}

TEST_F(CampaignSuiteFixture, CellsPruneExactlyWhenTheirWorkloadDoes) {
  // Pruning has no SuiteConfig switch: a default-configured suite prunes
  // every cell whose workload was built with PrunePolicy::on(), and its
  // results equal the plain workloads'.
  const Workload alphaPruned(lang::compileMiniC(kAlpha),
                             Workload::kDefaultHangFactor, SnapshotPolicy{},
                             PrunePolicy::on());
  const Workload betaPruned(lang::compileMiniC(kBeta),
                            Workload::kDefaultHangFactor, SnapshotPolicy{},
                            PrunePolicy::on());
  std::vector<CellSpec> cells = mixedCells();
  const std::vector<CampaignResult> plain = makeSuite(cells, {}).run();
  for (CellSpec& cell : cells) {
    cell.workload = cell.workload == alpha_.get() ? &alphaPruned : &betaPruned;
  }
  const std::vector<CampaignResult> pruned = makeSuite(cells, {}).run();

  std::size_t shortCircuited = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(pruned[i].counts, plain[i].counts) << "cell " << i;
    EXPECT_EQ(pruned[i].activationHist, plain[i].activationHist)
        << "cell " << i;
    EXPECT_EQ(plain[i].prune.shortCircuited(), 0u) << "cell " << i;
    shortCircuited += pruned[i].prune.shortCircuited();
  }
  EXPECT_GT(shortCircuited, 0u);
}

TEST_F(CampaignSuiteFixture, CostOrderedSchedulingRunsLongestCellFirst) {
  // Cost-ordered (LPT) scheduling, observed deterministically at
  // threads = 1: the cell with the larger estimated cost — golden dynamic
  // instructions × pending experiments — runs ALL of its shards before the
  // cheaper cell starts, regardless of addCell order. Results stay
  // bit-identical either way (covered by the suite-vs-solo test).
  const std::size_t cheapExperiments = 24;  // 3 shards at shardSize 8
  const std::size_t costlyExperiments = 64;  // 8 shards
  // alpha_ has the larger golden instruction count per experiment; pick
  // experiment counts so the "costly" cell wins on the product too.
  const std::uint64_t alphaCost =
      alpha_->golden().instructions * costlyExperiments;
  const std::uint64_t betaCost =
      beta_->golden().instructions * cheapExperiments;
  ASSERT_GT(alphaCost, betaCost);

  for (const bool costlyFirst : {false, true}) {
    SuiteConfig config;
    config.threads = 1;
    config.shardSize = 8;
    CampaignSuite suite(config);
    std::size_t costlyCell;
    std::size_t cheapCell;
    if (costlyFirst) {
      costlyCell = suite.addCell("costly", *alpha_,
                                 FaultModel::singleBit(FaultDomain::RegisterWrite),
                                 costlyExperiments, 0x52);
      cheapCell = suite.addCell("cheap", *beta_,
                                FaultModel::singleBit(FaultDomain::RegisterRead),
                                cheapExperiments, 0x51);
    } else {
      cheapCell = suite.addCell("cheap", *beta_,
                                FaultModel::singleBit(FaultDomain::RegisterRead),
                                cheapExperiments, 0x51);
      costlyCell = suite.addCell("costly", *alpha_,
                                 FaultModel::singleBit(FaultDomain::RegisterWrite),
                                 costlyExperiments, 0x52);
    }

    std::vector<std::size_t> completionOrder;
    suite.onProgress([&](const SuiteProgress& p) {
      completionOrder.push_back(p.cellIndex);
    });
    (void)suite.run();

    ASSERT_EQ(completionOrder.size(), 3u + 8u);
    for (std::size_t i = 0; i < completionOrder.size(); ++i) {
      EXPECT_EQ(completionOrder[i], i < 8 ? costlyCell : cheapCell)
          << "shard " << i << " (costlyFirst=" << costlyFirst << ")";
    }
  }
}

TEST_F(CampaignSuiteFixture, CostOrderTieBreaksByAddOrder) {
  // Two cells with identical estimated cost (same workload, same experiment
  // count) keep their addCell order in the schedule, so task order — and
  // with it intermediate progress states — is deterministic.
  SuiteConfig config;
  config.threads = 1;
  config.shardSize = 8;
  CampaignSuite suite(config);
  const std::size_t first = suite.addCell(
      "first", *alpha_, FaultModel::singleBit(FaultDomain::RegisterRead), 16, 0x61);
  const std::size_t second = suite.addCell(
      "second", *alpha_, FaultModel::singleBit(FaultDomain::RegisterWrite), 16, 0x62);

  std::vector<std::size_t> completionOrder;
  suite.onProgress([&](const SuiteProgress& p) {
    completionOrder.push_back(p.cellIndex);
  });
  (void)suite.run();

  ASSERT_EQ(completionOrder.size(), 4u);
  EXPECT_EQ(completionOrder[0], first);
  EXPECT_EQ(completionOrder[1], first);
  EXPECT_EQ(completionOrder[2], second);
  EXPECT_EQ(completionOrder[3], second);
}

}  // namespace
}  // namespace onebit::fi
