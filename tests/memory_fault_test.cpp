// Tests for the MemoryData fault domain: the store-event candidate stream,
// Memory::poke, the injector's stored-byte flips, and the full campaign
// contract over the new domain — determinism across threads × shard sizes,
// snapshot fast-forward bit-identity, and resume through the results store.
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "fi/campaign_store.hpp"
#include "fi/grid.hpp"
#include "fi/suite.hpp"
#include "lang/compile.hpp"

namespace onebit::fi {
namespace {

/// Store-heavy program: an array is filled, mutated and summed, so most
/// corrupted locations are reloaded (observable), and both 8-byte (int
/// array) and 1-byte (char array) stores appear.
const char* const kStoreProgram = R"MC(
int main() {
  int a[32];
  char bytes[16];
  for (int i = 0; i < 32; i++) {
    a[i] = i * 3 + 1;
  }
  for (int i = 0; i < 16; i++) {
    bytes[i] = i * 7;
  }
  int s = 0;
  for (int r = 0; r < 12; r++) {
    for (int i = 0; i < 32; i++) {
      a[i] = a[i] + a[(i + 7) % 32];
      s = s + a[i];
    }
    for (int i = 0; i < 16; i++) {
      s = s + bytes[i];
    }
  }
  print_i(s);
  return 0;
}
)MC";

Workload makeWorkload(SnapshotPolicy snapshots = {}) {
  return Workload(lang::compileMiniC(kStoreProgram),
                  Workload::kDefaultHangFactor, snapshots);
}

TEST(StoreStream, GoldenRunCountsStoreCandidates) {
  const Workload w = makeWorkload();
  // 32 + 16 initialization stores plus 12*32 update stores.
  EXPECT_EQ(w.golden().storeCandidates, 32u + 16u + 12u * 32u);
  EXPECT_EQ(w.candidates(FaultDomain::MemoryData),
            w.golden().storeCandidates);
}

TEST(StoreStream, TrappedStoresAreNotCandidates) {
  const ir::Module mod = lang::compileMiniC(R"MC(
int main() {
  int a[4];
  a[0] = 1;
  a[1] = 2;
  a[1000000] = 3;
  return 0;
}
)MC");
  const vm::ExecResult r = vm::execute(mod);
  EXPECT_EQ(r.status, vm::ExecStatus::Trapped);
  EXPECT_EQ(r.storeCandidates, 2u);  // the faulting store never committed
}

TEST(MemoryPoke, FlipsStoredBits) {
  vm::Memory mem({}, 4096, 4096);
  vm::TrapKind trap = vm::TrapKind::None;
  mem.store(ir::kStackBase + 16, 8, 0x1234'5678'9abc'def0ULL, trap);
  ASSERT_EQ(trap, vm::TrapKind::None);
  mem.poke(ir::kStackBase + 16, 8, 0xff00ULL, trap);
  ASSERT_EQ(trap, vm::TrapKind::None);
  EXPECT_EQ(mem.load(ir::kStackBase + 16, 8, trap),
            0x1234'5678'9abc'def0ULL ^ 0xff00ULL);
  // 1-byte poke touches exactly that byte.
  mem.store(ir::kStackBase + 32, 1, 0x5a, trap);
  mem.poke(ir::kStackBase + 32, 1, 0x0f, trap);
  EXPECT_EQ(mem.load(ir::kStackBase + 32, 1, trap), 0x5aULL ^ 0x0fULL);
  // Unmapped poke traps and changes nothing.
  trap = vm::TrapKind::None;
  mem.poke(0xdead'0000ULL, 8, 1, trap);
  EXPECT_EQ(trap, vm::TrapKind::SegFault);
}

TEST(MemoryInjector, FirstEventLandsAtPlannedStore) {
  const Workload w = makeWorkload(SnapshotPolicy::disabled());
  FaultPlan plan;
  plan.domain = FaultDomain::MemoryData;
  plan.firstIndex = 40;  // inside the byte-array init stores
  plan.seed = 5;
  InjectorHook hook(plan);
  const vm::ExecResult faulty =
      vm::execute(w.module(), w.faultyLimits(), &hook);
  ASSERT_EQ(hook.records().size(), 1u);
  EXPECT_EQ(hook.records()[0].candidateIndex, 40u);
  EXPECT_EQ(hook.activations(), 1u);
  // A flip in a reloaded summand must corrupt the printed sum.
  EXPECT_EQ(classify(faulty, w.golden()), stats::Outcome::SDC);
}

TEST(MemoryInjector, ByteStoreLocusIsEightBits) {
  // Candidate indices 32..47 are the 1-byte stores; every flip mask must
  // stay within the stored byte.
  const Workload w = makeWorkload(SnapshotPolicy::disabled());
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    FaultPlan plan;
    plan.domain = FaultDomain::MemoryData;
    plan.pattern = BitPattern::burstAdjacent(4);
    plan.firstIndex = 33;
    plan.seed = seed;
    InjectorHook hook(plan);
    vm::execute(w.module(), w.faultyLimits(), &hook);
    ASSERT_EQ(hook.records().size(), 1u);
    EXPECT_EQ(hook.records()[0].flipMask & ~0xffULL, 0u);
    EXPECT_EQ(hook.activations(), 4u);
  }
}

TEST(MemoryInjector, SameWordModeIsSpentInOneEventEvenWhenClamped) {
  // window == 0 means ALL max-MBF flips hit the first store at once; a
  // budget wider than the locus (m=30 into an 8-bit byte store) must clamp
  // and exhaust, never leak the remainder onto later stores.
  const Workload w = makeWorkload(SnapshotPolicy::disabled());
  FaultPlan plan;
  plan.domain = FaultDomain::MemoryData;
  plan.pattern = BitPattern::multiBitTemporal(30);
  plan.window = 0;
  plan.firstIndex = 35;  // a 1-byte store
  plan.seed = 7;
  InjectorHook hook(plan);
  vm::execute(w.module(), w.faultyLimits(), &hook);
  ASSERT_EQ(hook.records().size(), 1u);
  EXPECT_EQ(hook.records()[0].flipMask, 0xffULL);  // all 8 locus bits
  EXPECT_EQ(hook.activations(), 8u);
}

TEST(MemoryInjector, TemporalPatternSpacesStoreEvents) {
  const Workload w = makeWorkload(SnapshotPolicy::disabled());
  FaultPlan plan;
  plan.domain = FaultDomain::MemoryData;
  plan.pattern = BitPattern::multiBitTemporal(3);
  plan.window = 10;
  plan.firstIndex = 60;
  plan.seed = 13;
  InjectorHook hook(plan);
  vm::execute(w.module(), w.faultyLimits(), &hook);
  ASSERT_EQ(hook.records().size(), 3u);
  for (std::size_t i = 1; i < hook.records().size(); ++i) {
    EXPECT_GE(hook.records()[i].instrIndex,
              hook.records()[i - 1].instrIndex + 10);
  }
}

TEST(MemoryInjector, DeterministicGivenPlan) {
  const Workload w = makeWorkload(SnapshotPolicy::disabled());
  FaultPlan plan;
  plan.domain = FaultDomain::MemoryData;
  plan.pattern = BitPattern::multiBitTemporal(2);
  plan.window = 5;
  plan.firstIndex = 100;
  plan.seed = 99;
  const ExperimentResult a = runExperiment(w, plan);
  const ExperimentResult b = runExperiment(w, plan);
  EXPECT_EQ(a.outcome, b.outcome);
  EXPECT_EQ(a.activations, b.activations);
  EXPECT_EQ(a.instructions, b.instructions);
}

/// One campaign result for the given suite geometry.
CampaignResult runGeometry(const Workload& w, const FaultModel& model,
                           std::size_t threads, std::size_t shardSize) {
  CampaignConfig config;
  config.model = model;
  config.experiments = 300;
  config.seed = 0x3e3e;
  return runCampaign(w, config,
                     SuiteConfig{.threads = threads, .shardSize = shardSize});
}

TEST(MemoryCampaign, DeterministicAcrossThreadsAndShardSizes) {
  const Workload w = makeWorkload();
  for (const FaultModel& model :
       {FaultModel::singleBit(FaultDomain::MemoryData),
        FaultModel::burstAdjacent(FaultDomain::MemoryData, 4),
        FaultModel::multiBitTemporal(FaultDomain::MemoryData, 2,
                                     WinSize::fixed(1))}) {
    const CampaignResult reference = runGeometry(w, model, 1, 1);
    EXPECT_EQ(reference.counts.total(), 300u);
    for (const std::size_t threads : {1ULL, 8ULL}) {
      for (const std::size_t shardSize : {1ULL, 64ULL, 0ULL /*auto*/}) {
        const CampaignResult r = runGeometry(w, model, threads, shardSize);
        EXPECT_EQ(r.counts, reference.counts)
            << model.label() << " threads=" << threads
            << " shardSize=" << shardSize;
        EXPECT_EQ(r.activationHist, reference.activationHist)
            << model.label();
      }
    }
  }
}

TEST(MemoryCampaign, SnapshotFastForwardIsBitIdentical) {
  // Same campaign on a snapshot-caching workload and a from-scratch
  // workload: the golden-prefix fast-forward must never change results.
  const Workload cached = makeWorkload();        // snapshots on (default)
  const Workload scratch = makeWorkload(SnapshotPolicy::disabled());
  ASSERT_GT(cached.snapshotCount(), 0u);
  ASSERT_EQ(scratch.snapshotCount(), 0u);
  for (const FaultModel& model :
       {FaultModel::singleBit(FaultDomain::MemoryData),
        FaultModel::multiBitTemporal(FaultDomain::MemoryData, 3,
                                     WinSize::fixed(10))}) {
    // Per-experiment identity, not just aggregate identity.
    const std::uint64_t candidates = cached.candidates(FaultDomain::MemoryData);
    ASSERT_EQ(candidates, scratch.candidates(FaultDomain::MemoryData));
    for (std::uint64_t i = 0; i < 200; ++i) {
      const FaultPlan plan =
          FaultPlan::forExperiment(model, candidates, 0xcafe, i);
      const ExperimentResult a = runExperiment(cached, plan);
      const ExperimentResult b = runExperiment(scratch, plan);
      ASSERT_EQ(a.outcome, b.outcome) << model.label() << " exp " << i;
      ASSERT_EQ(a.activations, b.activations) << model.label() << " exp " << i;
      ASSERT_EQ(a.instructions, b.instructions) << model.label() << " exp " << i;
    }
  }
}

class TempStorePath {
 public:
  TempStorePath() {
    static int counter = 0;
    path_ = testing::TempDir() + "memory_fault_store_" +
            std::to_string(counter++) + ".jsonl";
    std::remove(path_.c_str());
  }
  ~TempStorePath() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& str() const noexcept { return path_; }

 private:
  std::string path_;
};

TEST(MemoryCampaign, ResumesThroughTheStore) {
  const Workload w = makeWorkload();
  const TempStorePath path;
  CampaignConfig config;
  config.model = FaultModel::burstAdjacent(FaultDomain::MemoryData, 2);
  config.experiments = 240;
  config.seed = 0x5707e;
  const SuiteConfig schedule{.threads = 2, .shardSize = 30};

  const CampaignResult fresh = runCampaign(w, config, schedule);

  {
    // Interrupt after 3 of 8 shards, checkpointing to the store.
    CampaignStore store(path.str());
    SuiteConfig capped = schedule;
    capped.maxShards = 3;
    capped.record = &store;
    const CampaignResult partial = runCampaign(w, config, capped);
    EXPECT_FALSE(partial.complete());
    EXPECT_EQ(partial.completedExperiments, 90u);
  }
  {
    // Resume from disk: merged shards + fresh shards == uninterrupted run.
    CampaignStore store(path.str());
    const CampaignStore::LoadStats loaded = store.load();
    EXPECT_EQ(loaded.shardRecords, 3u);
    EXPECT_EQ(loaded.malformed, 0u);
    SuiteConfig resuming = schedule;
    resuming.record = &store;
    resuming.resume = &store;
    const CampaignResult resumed = runCampaign(w, config, resuming);
    EXPECT_TRUE(resumed.complete());
    EXPECT_EQ(resumed.resumedExperiments, 90u);
    EXPECT_EQ(resumed.counts, fresh.counts);
    EXPECT_EQ(resumed.activationHist, fresh.activationHist);
  }
  {
    // The extension-domain key must round-trip the store: a fresh load
    // resumes every shard without recomputation.
    CampaignStore store(path.str());
    store.load();
    SuiteConfig replaying = schedule;
    replaying.resume = &store;
    const CampaignResult replayed = runCampaign(w, config, replaying);
    EXPECT_TRUE(replayed.complete());
    EXPECT_EQ(replayed.resumedExperiments, 240u);
    EXPECT_EQ(replayed.counts, fresh.counts);
  }
}

TEST(MemoryCampaign, ExtendedFingerprintBindsTheStoreStream) {
  // Paper cells keep the legacy fingerprint (old store records resume);
  // extension cells bind the store-event candidate count on top, since
  // MemoryData plans draw their first index from that stream.
  const Workload w = makeWorkload();
  EXPECT_EQ(w.fingerprintFor(FaultModel::singleBit(FaultDomain::RegisterRead)),
            w.fingerprint());
  EXPECT_EQ(w.fingerprintFor(FaultModel::multiBitTemporal(
                FaultDomain::RegisterWrite, 3, WinSize::fixed(1))),
            w.fingerprint());
  EXPECT_NE(w.fingerprintFor(FaultModel::singleBit(FaultDomain::MemoryData)),
            w.fingerprint());
  EXPECT_EQ(w.fingerprintFor(FaultModel::singleBit(FaultDomain::MemoryData)),
            util::hashCombine(w.fingerprint(), w.golden().storeCandidates));
}

TEST(MemoryCampaign, ExtensionKeysDifferFromPaperKeys) {
  // A MemoryData model must never share a campaign key with any register
  // model of identical parameters (the extended semantics version isolates
  // the two spaces).
  const FaultModel mem = FaultModel::singleBit(FaultDomain::MemoryData);
  const FaultModel read = FaultModel::singleBit(FaultDomain::RegisterRead);
  const FaultModel burst = FaultModel::burstAdjacent(FaultDomain::RegisterRead, 2);
  const FaultModel temporal2 = FaultModel::multiBitTemporal(
      FaultDomain::RegisterRead, 2, WinSize::fixed(0));
  EXPECT_NE(CampaignStore::campaignKey(mem, 100, 1, 2),
            CampaignStore::campaignKey(read, 100, 1, 2));
  // Same count (2), same domain: only the pattern kind separates them.
  EXPECT_NE(CampaignStore::campaignKey(burst, 100, 1, 2),
            CampaignStore::campaignKey(temporal2, 100, 1, 2));
}

}  // namespace
}  // namespace onebit::fi
