// Tests for the RandomValue fault domain — the blind random-register model
// (§III-A motivation), formerly the dedicated RandomRegisterHook. The
// injector must reproduce that hook's behavior bit for bit; the reference
// implementation below is a verbatim copy of the deleted hook, and the
// equivalence tests drive both against the same plans.
#include <gtest/gtest.h>

#include "fi/experiment.hpp"
#include "fi/suite.hpp"
#include "lang/compile.hpp"

namespace onebit::fi {
namespace {

const char* const kProgram = R"MC(
int main() {
  int s = 0;
  for (int i = 0; i < 100; i++) {
    s = s + i;
  }
  print_i(s);
  return 0;
}
)MC";

/// Reference: the deleted RandomRegisterHook, kept verbatim so the
/// FaultModel-based injector can be checked against the historical
/// semantics (same RNG draws, same flip stream, same activation rules).
class ReferenceBlindHook final : public vm::ExecHook {
 public:
  ReferenceBlindHook(std::uint64_t targetInstr, std::uint64_t seed)
      : targetInstr_(targetInstr), rng_(seed) {}

  void onRead(std::uint64_t, std::uint64_t instrIndex, const ir::Instr& instr,
              std::span<std::uint64_t> values,
              std::span<const bool> isReg) override {
    arm(instrIndex);
    if (!landed_ || overwritten_) return;
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (isReg[i] && instr.operands[i].reg == reg_) {
        values[i] ^= mask_;
        activated_ = true;
      }
    }
  }

  void onWrite(std::uint64_t, std::uint64_t instrIndex, const ir::Instr& instr,
               std::uint64_t&) override {
    arm(instrIndex);
    if (!landed_ || overwritten_) return;
    if (instr.dest == reg_) overwritten_ = true;
  }

  [[nodiscard]] bool activated() const noexcept { return activated_; }
  [[nodiscard]] bool landed() const noexcept { return landed_; }
  [[nodiscard]] bool overwritten() const noexcept { return overwritten_; }
  [[nodiscard]] ir::Reg targetRegister() const noexcept { return reg_; }

 private:
  void arm(std::uint64_t instrIndex) noexcept {
    if (landed_ || instrIndex < targetInstr_) return;
    landed_ = true;
    reg_ = static_cast<ir::Reg>(rng_.below(kArchRegisters));
    mask_ = 1ULL << rng_.below(64);
  }

  std::uint64_t targetInstr_;
  util::Rng rng_;
  ir::Reg reg_ = ir::kNoReg;
  std::uint64_t mask_ = 0;
  bool landed_ = false;
  bool activated_ = false;
  bool overwritten_ = false;
};

FaultPlan blindPlan(std::uint64_t targetInstr, std::uint64_t seed) {
  FaultPlan plan;
  plan.domain = FaultDomain::RandomValue;
  plan.firstIndex = targetInstr;
  plan.seed = seed;
  return plan;
}

TEST(RandomValue, EquivalentToTheDeletedRandomRegHook) {
  // Across many (target, seed) pairs the new injector and the reference
  // hook must agree on the run result AND every observable of the blind
  // state machine.
  const Workload w(lang::compileMiniC(kProgram));
  util::Rng rng(2024);
  int activatedRuns = 0;
  for (int i = 0; i < 300; ++i) {
    const std::uint64_t t = rng.below(w.golden().instructions);
    const std::uint64_t seed = rng.next();
    ReferenceBlindHook ref(t, seed);
    const vm::ExecResult refRun =
        vm::execute(w.module(), w.faultyLimits(), &ref);
    InjectorHook hook(blindPlan(t, seed));
    const vm::ExecResult run =
        vm::execute(w.module(), w.faultyLimits(), &hook);
    ASSERT_EQ(run.output, refRun.output);
    ASSERT_EQ(static_cast<int>(run.status), static_cast<int>(refRun.status));
    ASSERT_EQ(run.instructions, refRun.instructions);
    ASSERT_EQ(hook.landed(), ref.landed());
    ASSERT_EQ(hook.activated(), ref.activated());
    ASSERT_EQ(hook.overwritten(), ref.overwritten());
    ASSERT_EQ(hook.targetRegister(), ref.targetRegister());
    ASSERT_EQ(classify(run, w.golden()), classify(refRun, w.golden()));
    activatedRuns += hook.activated() ? 1 : 0;
  }
  EXPECT_GT(activatedRuns, 3);  // the comparison exercised real activations
}

TEST(RandomValue, RunExperimentMatchesDirectExecution) {
  // runExperiment (snapshot fast-forward on) must classify exactly like a
  // plain hooked execution, and expose activation through activations > 0.
  const Workload w(lang::compileMiniC(kProgram));
  util::Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t t = rng.below(w.golden().instructions);
    const std::uint64_t seed = rng.next();
    const FaultPlan plan = blindPlan(t, seed);
    InjectorHook hook(plan);
    const vm::ExecResult direct =
        vm::execute(w.module(), w.faultyLimits(), &hook);
    const ExperimentResult viaExperiment = runExperiment(w, plan);
    ASSERT_EQ(viaExperiment.outcome, classify(direct, w.golden()));
    ASSERT_EQ(viaExperiment.instructions, direct.instructions);
    ASSERT_EQ(viaExperiment.activations > 0, hook.activated());
  }
}

TEST(RandomValue, FaultBeyondRunNeverLands) {
  const Workload w(lang::compileMiniC(kProgram));
  InjectorHook hook(blindPlan(w.golden().instructions * 10, 1));
  vm::execute(w.module(), w.faultyLimits(), &hook);
  EXPECT_FALSE(hook.landed());
  EXPECT_FALSE(hook.activated());
}

TEST(RandomValue, LandsAtTargetInstruction) {
  const Workload w(lang::compileMiniC(kProgram));
  InjectorHook hook(blindPlan(10, 2));
  vm::execute(w.module(), w.faultyLimits(), &hook);
  EXPECT_TRUE(hook.landed());
  EXPECT_LT(hook.targetRegister(), kArchRegisters);
}

TEST(RandomValue, SomeFaultsActivateAndSomeDoNot) {
  // The core §III-A observation: the blind model wastes a large share of
  // injections on dead registers — but not all of them.
  const Workload w(lang::compileMiniC(kProgram));
  int activated = 0;
  int dormant = 0;
  util::Rng rng(99);
  for (int i = 0; i < 300; ++i) {
    const std::uint64_t t = rng.below(w.golden().instructions);
    InjectorHook hook(blindPlan(t, rng.next()));
    vm::execute(w.module(), w.faultyLimits(), &hook);
    activated += hook.activated() ? 1 : 0;
    dormant += hook.activated() ? 0 : 1;
  }
  EXPECT_GT(activated, 3);
  EXPECT_GT(dormant, 100);  // most blind faults never activate
}

TEST(RandomValue, NonActivatedFaultIsAlwaysBenign) {
  const Workload w(lang::compileMiniC(kProgram));
  util::Rng rng(31);
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t t = rng.below(w.golden().instructions);
    InjectorHook hook(blindPlan(t, rng.next()));
    const vm::ExecResult faulty =
        vm::execute(w.module(), w.faultyLimits(), &hook);
    if (!hook.activated()) {
      EXPECT_EQ(classify(faulty, w.golden()), stats::Outcome::Benign);
    }
  }
}

TEST(RandomValue, OverwriteDeactivates) {
  // A register that is rewritten every iteration: faults that land between
  // a write and the next write-before-read window can be overwritten.
  const Workload w(lang::compileMiniC(kProgram));
  int overwrittenBeforeUse = 0;
  util::Rng rng(11);
  for (int i = 0; i < 300; ++i) {
    const std::uint64_t t = rng.below(w.golden().instructions);
    InjectorHook hook(blindPlan(t, rng.next()));
    vm::execute(w.module(), w.faultyLimits(), &hook);
    if (hook.landed() && hook.overwritten() && !hook.activated()) {
      ++overwrittenBeforeUse;
    }
  }
  EXPECT_GT(overwrittenBeforeUse, 0);
}

TEST(RandomValue, CampaignRunsThroughTheStandardEngine) {
  // The blind model is now a first-class campaign domain: candidates are
  // dynamic instructions, and the whole engine stack (plans, shards,
  // histograms) applies unchanged.
  const Workload w(lang::compileMiniC(kProgram));
  CampaignConfig config;
  config.model = FaultModel::singleBit(FaultDomain::RandomValue);
  config.experiments = 120;
  config.seed = 0xb11d;
  const SuiteConfig schedule{.threads = 2};
  const CampaignResult a = runCampaign(w, config, schedule);
  const CampaignResult b = runCampaign(w, config, schedule);
  EXPECT_EQ(a.counts, b.counts);
  EXPECT_EQ(a.counts.total(), 120u);
  // Blind faults mostly miss: Benign must dominate but not be universal.
  EXPECT_GT(a.counts.count(stats::Outcome::Benign), 60u);
  EXPECT_LT(a.counts.count(stats::Outcome::Benign), 120u);
}

}  // namespace
}  // namespace onebit::fi
