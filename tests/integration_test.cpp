// Cross-module integration tests: real benchmark programs through the full
// compile -> profile -> inject -> classify pipeline.
#include <gtest/gtest.h>

#include "fi/grid.hpp"
#include "fi/suite.hpp"
#include "progs/registry.hpp"
#include "pruning/transition_study.hpp"

namespace onebit {
namespace {

fi::Workload makeWorkload(const char* name) {
  const progs::ProgramInfo* info = progs::findProgram(name);
  EXPECT_NE(info, nullptr);
  return fi::Workload(progs::compileProgram(*info));
}

TEST(Integration, SingleBitCampaignOnCrc32) {
  const fi::Workload w = makeWorkload("crc32");
  fi::CampaignConfig config;
  config.model = fi::FaultModel::singleBit(fi::FaultDomain::RegisterWrite);
  config.experiments = 200;
  const fi::CampaignResult r = fi::runCampaign(w, config);
  EXPECT_EQ(r.counts.total(), 200u);
  // CRC32 computes pure data values: flips must produce a healthy share of
  // SDCs (the paper singles crc32 out for exactly this, §IV-B).
  EXPECT_GT(r.counts.count(stats::Outcome::SDC), 20u);
}

TEST(Integration, AddressHeavyProgramDetectsFaults) {
  const fi::Workload w = makeWorkload("dijkstra");
  fi::CampaignConfig config;
  config.model = fi::FaultModel::singleBit(fi::FaultDomain::RegisterRead);
  config.experiments = 200;
  const fi::CampaignResult r = fi::runCampaign(w, config);
  // Pointer-chasing programs raise hardware exceptions under injection.
  EXPECT_GT(r.counts.count(stats::Outcome::Detected), 10u);
}

TEST(Integration, MultiBitCampaignActivationsBounded) {
  const fi::Workload w = makeWorkload("qsort");
  fi::CampaignConfig config;
  config.model =
      fi::FaultModel::multiBitTemporal(fi::FaultDomain::RegisterWrite, 30, fi::WinSize::fixed(1));
  config.experiments = 100;
  const fi::CampaignResult r = fi::runCampaign(w, config);
  EXPECT_EQ(r.counts.total(), 100u);
  // The 30-flip campaigns drive RQ1: activations land in the histogram.
  std::uint64_t histTotal = 0;
  for (const auto& row : r.activationHist) {
    for (const std::uint32_t c : row) histTotal += c;
  }
  EXPECT_EQ(histTotal, 100u);
}

TEST(Integration, MoreFlipsDoNotIncreaseBenignRate) {
  // With win-size 1 on inject-on-write, adding flips strictly reduces the
  // chance that every corruption is masked. Allow some statistical slack.
  const fi::Workload w = makeWorkload("sha");
  auto benignCount = [&](unsigned maxMbf) {
    fi::CampaignConfig config;
    config.model =
        maxMbf == 1
            ? fi::FaultModel::singleBit(fi::FaultDomain::RegisterWrite)
            : fi::FaultModel::multiBitTemporal(fi::FaultDomain::RegisterWrite, maxMbf,
                                      fi::WinSize::fixed(1));
    config.experiments = 250;
    config.seed = 99;
    return fi::runCampaign(w, config).counts.count(stats::Outcome::Benign);
  };
  const std::size_t one = benignCount(1);
  const std::size_t ten = benignCount(10);
  EXPECT_LE(ten, one + 25);
}

TEST(Integration, TransitionStudyOnRealProgram) {
  const fi::Workload w = makeWorkload("stringsearch");
  const fi::FaultModel multi =
      fi::FaultModel::multiBitTemporal(fi::FaultDomain::RegisterRead, 2, fi::WinSize::fixed(100));
  const pruning::TransitionStudyResult r =
      pruning::transitionStudy(w, multi, 100, 4242);
  std::uint64_t total = 0;
  for (unsigned o = 0; o < stats::kOutcomeCount; ++o) {
    total += r.countFrom(static_cast<stats::Outcome>(o));
  }
  EXPECT_EQ(total, 100u);
  // Transition I must stay a small minority (the paper's core RQ5 finding).
  EXPECT_LT(r.transitionI(), 0.5);
}

TEST(Integration, PaperGridLayoutFor182Campaigns) {
  const auto specs = fi::paperCampaigns();
  ASSERT_EQ(specs.size(), 182u);
  int singles = 0;
  int multi = 0;
  for (const auto& s : specs) {
    if (s.isSingleBit()) ++singles;
    else ++multi;
  }
  EXPECT_EQ(singles, 2);
  EXPECT_EQ(multi, 180);  // the paper's "180 clusters for each program"
}

TEST(Integration, WorkloadGoldenMatchesDirectExecution) {
  const progs::ProgramInfo* info = progs::findProgram("fft");
  const ir::Module mod = progs::compileProgram(*info);
  const fi::Workload w(mod);
  const vm::ExecResult direct = vm::execute(mod);
  EXPECT_EQ(w.golden().output, direct.output);
  EXPECT_EQ(w.golden().instructions, direct.instructions);
}

}  // namespace
}  // namespace onebit
