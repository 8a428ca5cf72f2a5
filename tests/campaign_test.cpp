// Tests for outcome classification, experiments and campaigns.
#include <gtest/gtest.h>

#include "fi/suite.hpp"
#include "lang/compile.hpp"

namespace onebit::fi {
namespace {

using stats::Outcome;

// --- classify() ---------------------------------------------------------------------

vm::ExecResult okRun(std::string output) {
  vm::ExecResult r;
  r.status = vm::ExecStatus::Ok;
  r.output = std::move(output);
  return r;
}

TEST(Classify, BenignWhenOutputMatches) {
  EXPECT_EQ(classify(okRun("abc"), okRun("abc")), Outcome::Benign);
}

TEST(Classify, SdcWhenOutputDiffers) {
  EXPECT_EQ(classify(okRun("abd"), okRun("abc")), Outcome::SDC);
}

TEST(Classify, SdcIsBitwise) {
  EXPECT_EQ(classify(okRun("abc "), okRun("abc")), Outcome::SDC);
}

TEST(Classify, NoOutputWhenFaultySilent) {
  EXPECT_EQ(classify(okRun(""), okRun("abc")), Outcome::NoOutput);
}

TEST(Classify, BenignWhenBothSilent) {
  EXPECT_EQ(classify(okRun(""), okRun("")), Outcome::Benign);
}

TEST(Classify, DetectedOnTrap) {
  vm::ExecResult r = okRun("partial");
  r.status = vm::ExecStatus::Trapped;
  r.trap = vm::TrapKind::SegFault;
  EXPECT_EQ(classify(r, okRun("abc")), Outcome::Detected);
}

TEST(Classify, HangOnFuelExhaustion) {
  vm::ExecResult r = okRun("abc");
  r.status = vm::ExecStatus::FuelExhausted;
  EXPECT_EQ(classify(r, okRun("abc")), Outcome::Hang);
}

TEST(Classify, TruncatedOutputIsNotBenign) {
  vm::ExecResult r = okRun("abc");
  r.outputTruncated = true;
  EXPECT_EQ(classify(r, okRun("abc")), Outcome::SDC);
}

// --- Workload ------------------------------------------------------------------------

TEST(Workload, ThrowsOnNonTerminatingProgram) {
  const ir::Module mod =
      lang::compileMiniC("int main() { abort(); return 0; }");
  EXPECT_THROW(Workload w(mod), std::runtime_error);
}

TEST(Workload, FaultyBudgetScalesWithGolden) {
  const ir::Module mod = lang::compileMiniC(
      "int main() { int s = 0; for (int i = 0; i < 100; i++) s += i; "
      "print_i(s); return 0; }");
  const Workload w(mod, /*hangFactor=*/50);
  EXPECT_GE(w.faultyLimits().maxInstructions,
            w.golden().instructions * 50);
}

// --- runExperiment ----------------------------------------------------------------------

TEST(Experiment, BenignWhenInjectionNeverActivates) {
  const ir::Module mod =
      lang::compileMiniC("int main() { print_i(5); return 0; }");
  const Workload w(mod);
  FaultPlan plan;
  plan.domain = FaultDomain::RegisterRead;
  plan.pattern = BitPattern::singleBit();
  plan.firstIndex = 1'000'000;  // never reached
  const ExperimentResult r = runExperiment(w, plan);
  EXPECT_EQ(r.outcome, Outcome::Benign);
  EXPECT_EQ(r.activations, 0u);
}

TEST(Experiment, FlippingPrintedValueIsSdc) {
  // One candidate only: the print of a constant-loaded register.
  const ir::Module mod = lang::compileMiniC(
      "int g = 123; int main() { int v = g; print_i(v); return 0; }");
  const Workload w(mod);
  // Find an experiment whose injection hits and flips the printed value.
  int sdcSeen = 0;
  for (std::uint64_t i = 0; i < 40; ++i) {
    const FaultPlan plan = FaultPlan::forExperiment(
        FaultModel::singleBit(FaultDomain::RegisterRead),
        w.candidates(FaultDomain::RegisterRead), 7, i);
    const ExperimentResult r = runExperiment(w, plan);
    if (r.outcome == Outcome::SDC) ++sdcSeen;
  }
  EXPECT_GT(sdcSeen, 0);
}

// --- runCampaign ---------------------------------------------------------------------------

const char* const kGuineaPig = R"MC(
int a[32];
int seed = 9;
int rnd() { seed = (seed * 1103515245 + 12345) & 2147483647; return seed; }
int main() {
  for (int i = 0; i < 32; i++) { a[i] = rnd() % 1000; }
  int s = 0;
  for (int i = 0; i < 32; i++) { s = (s * 31 + a[i]) & 1048575; }
  print_s("sum=");
  print_i(s);
  print_c(10);
  return 0;
}
)MC";

class CampaignFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    mod_ = lang::compileMiniC(kGuineaPig);
    workload_ = std::make_unique<Workload>(mod_);
  }
  ir::Module mod_;
  std::unique_ptr<Workload> workload_;
};

TEST_F(CampaignFixture, CountsSumToExperimentCount) {
  CampaignConfig config;
  config.model = FaultModel::singleBit(FaultDomain::RegisterWrite);
  config.experiments = 300;
  const CampaignResult r = runCampaign(*workload_, config);
  EXPECT_EQ(r.counts.total(), 300u);
}

TEST_F(CampaignFixture, DeterministicAcrossRuns) {
  CampaignConfig config;
  config.model = FaultModel::multiBitTemporal(FaultDomain::RegisterRead, 3, WinSize::fixed(4));
  config.experiments = 200;
  config.seed = 31337;
  const CampaignResult a = runCampaign(*workload_, config);
  const CampaignResult b = runCampaign(*workload_, config);
  for (unsigned i = 0; i < stats::kOutcomeCount; ++i) {
    const auto o = static_cast<Outcome>(i);
    EXPECT_EQ(a.counts.count(o), b.counts.count(o));
  }
}

TEST_F(CampaignFixture, ThreadCountDoesNotChangeResults) {
  CampaignConfig config;
  config.model = FaultModel::multiBitTemporal(FaultDomain::RegisterWrite, 2, WinSize::fixed(1));
  config.experiments = 150;
  config.seed = 777;
  const CampaignResult serial =
      runCampaign(*workload_, config, SuiteConfig{.threads = 1});
  const CampaignResult parallel =
      runCampaign(*workload_, config, SuiteConfig{.threads = 4});
  for (unsigned i = 0; i < stats::kOutcomeCount; ++i) {
    const auto o = static_cast<Outcome>(i);
    EXPECT_EQ(serial.counts.count(o), parallel.counts.count(o));
  }
}

TEST_F(CampaignFixture, SuiteResolvesShardingParameters) {
  EXPECT_EQ(resolveThreads(2), 2u);
  EXPECT_EQ(resolveShardSize(100, 30), 30u);
  CampaignSuite suite(SuiteConfig{.threads = 2, .shardSize = 30});
  suite.addCell("cell", *workload_,
                FaultModel::singleBit(FaultDomain::RegisterRead), 100, 1);
  std::size_t shardCount = 0;
  suite.onProgress(
      [&](const SuiteProgress& p) { shardCount = p.shardCount; });
  (void)suite.run();
  EXPECT_EQ(shardCount, 4u);  // 30+30+30+10
}

TEST_F(CampaignFixture, DifferentSeedsGiveDifferentSamples) {
  CampaignConfig config;
  config.model = FaultModel::singleBit(FaultDomain::RegisterRead);
  config.experiments = 200;
  config.seed = 1;
  const CampaignResult a = runCampaign(*workload_, config);
  config.seed = 2;
  const CampaignResult b = runCampaign(*workload_, config);
  bool anyDiff = false;
  for (unsigned i = 0; i < stats::kOutcomeCount; ++i) {
    const auto o = static_cast<Outcome>(i);
    anyDiff = anyDiff || a.counts.count(o) != b.counts.count(o);
  }
  EXPECT_TRUE(anyDiff);
}

TEST_F(CampaignFixture, ActivationHistogramMatchesOutcomeCounts) {
  CampaignConfig config;
  config.model = FaultModel::multiBitTemporal(FaultDomain::RegisterWrite, 30, WinSize::fixed(10));
  config.experiments = 200;
  const CampaignResult r = runCampaign(*workload_, config);
  for (unsigned o = 0; o < stats::kOutcomeCount; ++o) {
    std::uint64_t histTotal = 0;
    for (const std::uint32_t c : r.activationHist[o]) histTotal += c;
    EXPECT_EQ(histTotal, r.counts.count(static_cast<Outcome>(o)));
  }
}

TEST_F(CampaignFixture, SingleBitActivationsAreZeroOrOne) {
  CampaignConfig config;
  config.model = FaultModel::singleBit(FaultDomain::RegisterRead);
  config.experiments = 200;
  const CampaignResult r = runCampaign(*workload_, config);
  for (unsigned o = 0; o < stats::kOutcomeCount; ++o) {
    for (unsigned k = 2; k <= kMaxActivationBucket; ++k) {
      EXPECT_EQ(r.activationHist[o][k], 0u);
    }
  }
}

TEST_F(CampaignFixture, SdcProportionMatchesCounts) {
  CampaignConfig config;
  config.model = FaultModel::singleBit(FaultDomain::RegisterWrite);
  config.experiments = 250;
  const CampaignResult r = runCampaign(*workload_, config);
  const auto sdc = r.sdc();
  EXPECT_EQ(sdc.successes, r.counts.count(Outcome::SDC));
  EXPECT_EQ(sdc.n, 250u);
}

TEST_F(CampaignFixture, InjectionsHaveVisibleEffect) {
  // A decent fraction of single-bit injections must not be Benign —
  // otherwise the injector is not actually corrupting state.
  CampaignConfig config;
  config.model = FaultModel::singleBit(FaultDomain::RegisterWrite);
  config.experiments = 300;
  const CampaignResult r = runCampaign(*workload_, config);
  EXPECT_LT(r.counts.count(Outcome::Benign), 295u);
}

}  // namespace
}  // namespace onebit::fi
