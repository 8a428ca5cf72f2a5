// Campaign-fleet tests (fi/fleet.hpp): fleet-vs-solo bit-identity across
// worker counts, crash-after-claim → lease expiry → epoch-bumped re-lease
// (on a fake clock, so expiry is deterministic), the same-host dead-pid
// fast path, SIGKILL-a-worker fault tolerance and shard-cap worker recycling
// through runFleet, shard-record byte identity between fleet and solo
// stores (with and without pruning), stalled-worker semantics for
// unresolvable and key-mismatched cells, workers inheriting the submitter's
// workloads when no resolver is set, the registry resolver of standalone
// workers, and compaction of a finished fleet store.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "fi/campaign_store.hpp"
#include "fi/fleet.hpp"
#include "fi/suite.hpp"
#include "fi/supervisor.hpp"
#include "lang/compile.hpp"
#include "progs/registry.hpp"
#include "util/file_lock.hpp"

namespace onebit::fi {
namespace {

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

/// All the lines of `path` that are shard records, sorted and deduplicated —
/// duplicate shard records are byte-identical by the determinism contract,
/// so the deduplicated set IS the comparable content of a store.
std::vector<std::string> shardLines(const std::string& path) {
  std::string bytes;
  if (std::FILE* f = std::fopen(path.c_str(), "rb")) {
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) bytes.append(buf, n);
    std::fclose(f);
  }
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < bytes.size()) {
    std::size_t end = bytes.find('\n', start);
    if (end == std::string::npos) end = bytes.size();
    std::string line = bytes.substr(start, end - start);
    if (line.find("\"kind\":\"shard\"") != std::string::npos) {
      lines.push_back(std::move(line));
    }
    start = end + 1;
  }
  std::sort(lines.begin(), lines.end());
  lines.erase(std::unique(lines.begin(), lines.end()), lines.end());
  return lines;
}

/// Every shard of every cell in the store at `path` is recorded, and its
/// newest lease is a completion lease (cost_ms stamped) — a fleet worker ran
/// it, not the in-process final pass.
void expectWorkersRanEveryShard(const std::string& path) {
  CampaignStore store(path, CampaignStore::WriteMode::Atomic);
  store.load();
  const std::vector<CampaignStore::CellRecord> cells = store.cells();
  ASSERT_FALSE(cells.empty());
  for (const CampaignStore::CellRecord& cell : cells) {
    for (std::size_t s = 0; s < cell.geometry().shards(); ++s) {
      const std::size_t first = cell.geometry().first(s);
      const std::size_t count = cell.geometry().count(s);
      EXPECT_NE(store.findShard(cell.key, first, count), nullptr)
          << cell.workload << " shard " << s;
      const auto lease = store.latestLease(cell.key, first, count);
      ASSERT_TRUE(lease.has_value()) << cell.workload << " shard " << s;
      EXPECT_NE(lease->costMs, 0u) << cell.workload << " shard " << s;
    }
  }
}

std::size_t countLines(const std::string& path, const std::string& needle) {
  std::size_t n = 0;
  if (std::FILE* f = std::fopen(path.c_str(), "rb")) {
    char buf[1 << 16];
    while (std::fgets(buf, sizeof buf, f) != nullptr) {
      if (std::string(buf).find(needle) != std::string::npos) ++n;
    }
    std::fclose(f);
  }
  return n;
}

class FleetFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    alpha_ = std::make_shared<Workload>(lang::compileMiniC(kAlpha));
    beta_ = std::make_shared<Workload>(lang::compileMiniC(kBeta));
    path_ = ::testing::TempDir() + "fleet_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            "_" + std::to_string(::getpid()) + ".jsonl";
    cleanup();
  }

  void TearDown() override { cleanup(); }

  void cleanup() const {
    std::remove(path_.c_str());
    std::remove((path_ + ".lock").c_str());
  }

  /// The worker-side resolver every test fleet uses: cells name "alpha" or
  /// "beta", the resolver hands back the fixture's compiled workloads (the
  /// fork()ed workers inherit them).
  [[nodiscard]] FleetConfig fleetConfig() const {
    FleetConfig config;
    config.pollMs = 2;
    config.workloadResolver =
        [alpha = alpha_, beta = beta_](const CampaignStore::CellRecord& cell)
        -> std::shared_ptr<const Workload> {
      if (cell.workload == "alpha") return alpha;
      if (cell.workload == "beta") return beta;
      return nullptr;
    };
    return config;
  }

  struct CellSpec {
    std::string name;  ///< storeName a worker resolves ("alpha" / "beta")
    FaultModel model;
    std::size_t experiments;
    std::uint64_t seed;
  };

  [[nodiscard]] std::vector<CellSpec> mixedCells() const {
    return {
        {"alpha", FaultModel::singleBit(FaultDomain::RegisterRead), 96,
         0xaaa1},
        {"alpha",
         FaultModel::multiBitTemporal(FaultDomain::RegisterWrite, 3,
                                      WinSize::fixed(2)),
         240, 0xaaa2},
        {"beta",
         FaultModel::multiBitTemporal(FaultDomain::RegisterRead, 2,
                                      WinSize::fixed(0)),
         57, 0xbbb1},
        {"beta", FaultModel::singleBit(FaultDomain::RegisterWrite), 10,
         0xbbb2},
    };
  }

  [[nodiscard]] const Workload& workloadOf(const CellSpec& cell) const {
    return cell.name == "alpha" ? *alpha_ : *beta_;
  }

  [[nodiscard]] CampaignResult solo(const CellSpec& cell) const {
    return runCampaign(workloadOf(cell),
                       {cell.model, cell.experiments, cell.seed},
                       SuiteConfig{.threads = 1});
  }

  [[nodiscard]] CampaignSuite makeSuite(const std::vector<CellSpec>& cells,
                                        SuiteConfig config) const {
    CampaignSuite suite(config);
    for (std::size_t i = 0; i < cells.size(); ++i) {
      suite.addCell("cell" + std::to_string(i), workloadOf(cells[i]),
                    cells[i].model, cells[i].experiments, cells[i].seed,
                    cells[i].name);
    }
    return suite;
  }

  std::shared_ptr<Workload> alpha_;
  std::shared_ptr<Workload> beta_;
  std::string path_;
};

TEST(FleetPoisonHook, ParsesNameAndShardAndRefusesTheRest) {
  FleetConfig config;
  ASSERT_TRUE(parsePoisonHook("qsort", config));
  EXPECT_EQ(config.poisonWorkload, "qsort");
  EXPECT_EQ(config.poisonShard, static_cast<std::size_t>(-1));  // any shard
  ASSERT_TRUE(parsePoisonHook("qsort:3", config));
  EXPECT_EQ(config.poisonWorkload, "qsort");
  EXPECT_EQ(config.poisonShard, 3u);

  // Each of these leaves the hook as it was: strtoull would read "-1" as
  // 2^64-1 ("every shard") and keep "abc" in the workload name.
  for (const char* bad : {"qsort:-1", "qsort:abc", ":3", "x:",
                          "x:18446744073709551616", "x:18446744073709551615",
                          ""}) {
    FleetConfig off;
    EXPECT_FALSE(parsePoisonHook(bad, off)) << bad;
    EXPECT_TRUE(off.poisonWorkload.empty()) << bad;
    EXPECT_EQ(off.poisonShard, static_cast<std::size_t>(-1)) << bad;
  }
}

TEST_F(FleetFixture, MakeCellStampsTheContractAndRefusesTheInexpressible) {
  const FaultModel model = FaultModel::singleBit(FaultDomain::RegisterRead);
  const auto cell = FleetBroker::makeCell("alpha", *alpha_, model, 96,
                                          0xaaa1, 16);
  ASSERT_TRUE(cell.has_value());
  EXPECT_EQ(cell->key, CampaignStore::campaignKey(
                           model, 96, 0xaaa1, alpha_->fingerprintFor(model)));
  EXPECT_EQ(cell->workload, "alpha");
  EXPECT_EQ(cell->spec, model.label());
  EXPECT_EQ(cell->flipWidth, model.flipWidth);
  EXPECT_EQ(cell->experiments, 96u);
  EXPECT_EQ(cell->seed, 0xaaa1u);
  EXPECT_EQ(cell->shardSize, 16u);
  EXPECT_EQ(cell->hangFactor, alpha_->hangFactor());
  EXPECT_EQ(cell->dynInstrs, alpha_->golden().instructions);
  EXPECT_EQ(cell->geometry().shards(), 6u);

  // Not expressible as a fleet cell: no workload name, no experiments, or
  // no shard geometry. Each must be refused, not submitted-and-stalled.
  EXPECT_FALSE(FleetBroker::makeCell("", *alpha_, model, 96, 1, 16));
  EXPECT_FALSE(FleetBroker::makeCell("alpha", *alpha_, model, 0, 1, 16));
  EXPECT_FALSE(FleetBroker::makeCell("alpha", *alpha_, model, 96, 1, 0));
}

TEST_F(FleetFixture, FleetMatchesSoloForOneTwoAndFourWorkers) {
  const std::vector<CellSpec> cells = mixedCells();
  std::vector<CampaignResult> refs;
  for (const CellSpec& cell : cells) refs.push_back(solo(cell));

  for (const std::size_t workers : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}}) {
    cleanup();
    SuiteConfig config;
    config.shardSize = 16;
    const CampaignSuite suite = makeSuite(cells, config);
    LocalFleetOptions options;
    options.workers = workers;
    options.config = fleetConfig();
    FleetSupervisor::Report report;
    const std::vector<CampaignResult> results =
        runFleet(suite, config, path_, options, &report);
    // A clean run: one incarnation per worker, every one ending Done, so
    // the report is settled without reading the store.
    EXPECT_EQ(report.spawned, workers);
    EXPECT_EQ(report.restarts, 0u);
    EXPECT_TRUE(report.converged);
    ASSERT_EQ(results.size(), cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
      EXPECT_EQ(results[i].counts, refs[i].counts)
          << "cell " << i << " workers=" << workers;
      EXPECT_EQ(results[i].activationHist, refs[i].activationHist)
          << "cell " << i << " workers=" << workers;
      EXPECT_EQ(results[i].completedExperiments, cells[i].experiments);
      EXPECT_TRUE(results[i].complete());
    }
    // Every cell was submitted and fully recorded: the broker agrees.
    FleetBroker broker(path_);
    EXPECT_TRUE(broker.complete());
    for (const FleetBroker::CellStatus& st : broker.status()) {
      EXPECT_TRUE(st.complete());
      EXPECT_EQ(st.recordedShards, st.cell.geometry().shards());
    }
  }
}

TEST_F(FleetFixture, KilledWorkerIsReLeasedAndResultsUnchanged) {
  // The acceptance scenario: two workers, the first SIGKILLs itself right
  // after its first lease claim (no cleanup, lease left dangling). The
  // survivor re-leases the abandoned shard — same-host liveness makes that
  // prompt once the parent reaps the corpse; the 1s deadline bounds it
  // either way — and the merged results are bit-identical to solo.
  const std::vector<CellSpec> cells = mixedCells();
  SuiteConfig config;
  config.shardSize = 16;
  const CampaignSuite suite = makeSuite(cells, config);
  LocalFleetOptions options;
  options.workers = 2;
  options.config = fleetConfig();
  options.config.leaseMs = 1000;
  options.killFirstWorkerAfterClaims = 1;
  FleetSupervisor::Report report;
  const std::vector<CampaignResult> results =
      runFleet(suite, config, path_, options, &report);
  // One crash, one respawn that is not killed again, and one death is no
  // poison verdict.
  EXPECT_EQ(report.crashes, 1u);
  EXPECT_EQ(report.restarts, 1u);
  EXPECT_EQ(report.quarantinedShards, 0u);
  EXPECT_TRUE(report.converged);
  ASSERT_EQ(results.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CampaignResult ref = solo(cells[i]);
    EXPECT_EQ(results[i].counts, ref.counts) << "cell " << i;
    EXPECT_EQ(results[i].activationHist, ref.activationHist) << "cell " << i;
    EXPECT_TRUE(results[i].complete());
  }
  // The dangling lease really was re-claimed at a higher epoch (the killed
  // worker's claim is always burned, and the survivor must take it over —
  // it cannot finish while an unrecorded shard exists).
  CampaignStore store(path_, CampaignStore::WriteMode::Atomic);
  store.load();
  std::uint64_t maxEpoch = 0;
  for (const CampaignStore::CellRecord& cell : store.cells()) {
    for (const CampaignStore::LeaseRecord& l : store.leases(cell.key)) {
      maxEpoch = std::max(maxEpoch, l.epoch);
    }
  }
  EXPECT_GE(maxEpoch, 2u);
}

TEST_F(FleetFixture, ShardCapRecyclesWorkersWithoutRestarts) {
  // maxShardsPerWorker = 1: every incarnation exits after one shard and is
  // respawned as a planned recycle, not a restart, until the fleet is done.
  const std::vector<CellSpec> cells = mixedCells();
  SuiteConfig config;
  config.shardSize = 16;
  const CampaignSuite suite = makeSuite(cells, config);
  LocalFleetOptions options;
  options.workers = 2;
  options.config = fleetConfig();
  options.maxShardsPerWorker = 1;
  FleetSupervisor::Report report;
  const std::vector<CampaignResult> results =
      runFleet(suite, config, path_, options, &report);
  EXPECT_GT(report.spawned, options.workers);
  EXPECT_EQ(report.restarts, 0u);
  EXPECT_TRUE(report.converged);
  expectWorkersRanEveryShard(path_);
  const std::vector<CampaignResult> refs = makeSuite(cells, config).run();
  ASSERT_EQ(results.size(), refs.size());
  for (std::size_t i = 0; i < refs.size(); ++i) {
    EXPECT_EQ(results[i].counts, refs[i].counts) << "cell " << i;
    EXPECT_EQ(results[i].activationHist, refs[i].activationHist)
        << "cell " << i;
    EXPECT_TRUE(results[i].complete()) << "cell " << i;
  }
}

TEST_F(FleetFixture, ExpiredLeaseIsReclaimedAtTheNextEpoch) {
  // Deterministic expiry on a fake clock: a foreign (non-pid) worker holds
  // shard 0; until its deadline passes the local worker must leave the
  // shard alone, afterwards it must re-lease it at epoch 2.
  const CellSpec spec{"beta", FaultModel::singleBit(FaultDomain::RegisterWrite),
                      10, 0xbbb2};
  const auto cell = FleetBroker::makeCell(spec.name, *beta_, spec.model,
                                          spec.experiments, spec.seed, 5);
  ASSERT_TRUE(cell.has_value());  // 2 shards of 5
  {
    FleetBroker broker(path_);
    ASSERT_TRUE(broker.submit(*cell));
    CampaignStore store(path_, CampaignStore::WriteMode::Atomic);
    store.load();
    ASSERT_TRUE(store.appendLease(cell->key,
                                  {0, 5, "foreign-host-worker", 1, 1500}));
  }
  std::uint64_t fakeNow = 1000;
  FleetConfig config = fleetConfig();
  config.leaseMs = 10'000;
  config.clock = [&fakeNow] { return fakeNow; };
  FleetWorker worker(path_, "", config);

  // Shard 0 is held (deadline 1500 > 1000): only shard 1 is claimable.
  EXPECT_EQ(worker.step(), FleetWorker::Step::Ran);
  EXPECT_EQ(worker.step(), FleetWorker::Step::Idle);
  EXPECT_EQ(worker.shardsRun(), 1u);

  fakeNow = 1500;  // deadline <= now: the foreign lease is dead
  EXPECT_EQ(worker.step(), FleetWorker::Step::Ran);
  EXPECT_EQ(worker.step(), FleetWorker::Step::Done);
  EXPECT_EQ(worker.shardsRun(), 2u);

  CampaignStore store(path_, CampaignStore::WriteMode::Atomic);
  store.load();
  const auto lease = store.latestLease(cell->key, 0, 5);
  ASSERT_TRUE(lease.has_value());
  EXPECT_EQ(lease->epoch, 2u);  // re-lease, not a renewal of epoch 1
  EXPECT_EQ(lease->worker, worker.workerId());

  // The run the two epochs produced is bit-identical to solo.
  const CampaignStore::Snapshot snap = store.snapshot();
  const CampaignStore::Snapshot::Campaign& camp = snap.campaigns.at(cell->key);
  ASSERT_TRUE(camp.complete());
  const CampaignResult ref = solo(spec);
  EXPECT_EQ(camp.totals(), ref.counts);
  EXPECT_EQ(camp.histogram(), ref.activationHist);
}

TEST_F(FleetFixture, MillisecondLeaseDoesNotHeartbeatEveryExperiment) {
  // A 1 ms lease has leaseMs / 3 == 0; the heartbeat period is floored at
  // 1 ms, so on a clock that stands still the shard's ten experiments renew
  // nothing: the store holds the claim lease and the completion lease only.
  const auto cell = FleetBroker::makeCell(
      "beta", *beta_, FaultModel::singleBit(FaultDomain::RegisterWrite), 10,
      0xbbb2, 10);
  ASSERT_TRUE(cell.has_value());  // a single shard
  {
    FleetBroker broker(path_);
    ASSERT_TRUE(broker.submit(*cell));
  }
  const std::uint64_t fakeNow = 1000;
  FleetConfig config = fleetConfig();
  config.leaseMs = 1;
  config.clock = [fakeNow] { return fakeNow; };
  FleetWorker worker(path_, "", config);
  EXPECT_EQ(worker.step(), FleetWorker::Step::Ran);
  EXPECT_EQ(worker.step(), FleetWorker::Step::Done);
  EXPECT_EQ(countLines(path_, "\"kind\":\"lease\""), 2u);
}

TEST_F(FleetFixture, DeadPidLeaseIsStolenBeforeItsDeadline) {
  // Same-host fast path: the lease's worker id carries a pid that no longer
  // exists, so the shard is re-leasable immediately — long before the (far
  // future) deadline.
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) std::_Exit(0);
  int status = 0;
  while (::waitpid(child, &status, 0) < 0 && errno == EINTR) {
  }

  const auto cell = FleetBroker::makeCell(
      "beta", *beta_, FaultModel::singleBit(FaultDomain::RegisterWrite), 10,
      0xbbb2, 10);
  ASSERT_TRUE(cell.has_value());  // a single shard
  {
    FleetBroker broker(path_);
    ASSERT_TRUE(broker.submit(*cell));
    CampaignStore store(path_, CampaignStore::WriteMode::Atomic);
    store.load();
    ASSERT_TRUE(store.appendLease(
        cell->key, {0, 10, std::to_string(child) + ":beef", 1,
                    util::wallClockMs() + 3'600'000}));
  }
  FleetWorker worker(path_, "", fleetConfig());
  EXPECT_EQ(worker.step(), FleetWorker::Step::Ran);
  EXPECT_EQ(worker.step(), FleetWorker::Step::Done);

  CampaignStore store(path_, CampaignStore::WriteMode::Atomic);
  store.load();
  const auto lease = store.latestLease(cell->key, 0, 10);
  ASSERT_TRUE(lease.has_value());
  EXPECT_EQ(lease->epoch, 2u);
}

TEST_F(FleetFixture, WorkerStallsOnACellItCannotResolve) {
  const auto cell = FleetBroker::makeCell(
      "alpha", *alpha_, FaultModel::singleBit(FaultDomain::RegisterRead), 32,
      0xaaa1, 16);
  ASSERT_TRUE(cell.has_value());
  {
    FleetBroker broker(path_);
    ASSERT_TRUE(broker.submit(*cell));
  }
  FleetConfig config = fleetConfig();
  config.workloadResolver = [](const CampaignStore::CellRecord&)
      -> std::shared_ptr<const Workload> { return nullptr; };
  FleetWorker worker(path_, "", config);
  EXPECT_EQ(worker.run(), FleetWorker::Step::Stalled);
  EXPECT_EQ(worker.shardsRun(), 0u);

  // A worker that CAN resolve the cell is unaffected by the stalled one's
  // burned lease (its own id never blocks it; a foreign abandoned lease is
  // skipped only until it lapses — here it is the stalled worker's, which
  // is alive, so this worker waits for expiry... avoid that by reusing the
  // stalled worker's id, which never blocks itself).
  FleetWorker rescue(path_, worker.workerId(), fleetConfig());
  EXPECT_EQ(rescue.run(), FleetWorker::Step::Done);
  EXPECT_EQ(rescue.shardsRun(), 2u);
}

TEST_F(FleetFixture, RunFleetFinishesInexpressibleCellsInProcess) {
  // A cell with no store name cannot be submitted to the fleet; runFleet
  // must fall back to running it in-process and still return a result set
  // bit-identical to suite.run().
  std::vector<CellSpec> cells = mixedCells();
  SuiteConfig config;
  config.shardSize = 16;
  CampaignSuite suite(config);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    suite.addCell("cell" + std::to_string(i), workloadOf(cells[i]),
                  cells[i].model, cells[i].experiments, cells[i].seed,
                  i == 0 ? std::string() : cells[i].name);  // cell 0 unnamed
  }
  LocalFleetOptions options;
  options.workers = 1;
  options.config = fleetConfig();
  const std::vector<CampaignResult> results =
      runFleet(suite, config, path_, options);
  ASSERT_EQ(results.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CampaignResult ref = solo(cells[i]);
    EXPECT_EQ(results[i].counts, ref.counts) << "cell " << i;
    EXPECT_TRUE(results[i].complete());
  }
  // Only the three named cells ever became fleet cells.
  FleetBroker broker(path_);
  EXPECT_EQ(broker.status().size(), cells.size() - 1);
}

TEST_F(FleetFixture, FleetShardRecordsAreByteIdenticalToSoloRecords) {
  const std::vector<CellSpec> cells = mixedCells();
  SuiteConfig config;
  config.shardSize = 16;

  // Fleet store: two workers through the lease protocol.
  {
    const CampaignSuite suite = makeSuite(cells, config);
    LocalFleetOptions options;
    options.workers = 2;
    options.config = fleetConfig();
    (void)runFleet(suite, config, path_, options);
  }
  // Solo store: the ordinary record path, same cells, same geometry.
  const std::string soloPath = path_ + ".solo";
  std::remove(soloPath.c_str());
  {
    CampaignStore store(soloPath);
    SuiteConfig recordConfig = config;
    recordConfig.record = &store;
    (void)makeSuite(cells, recordConfig).run();
  }
  const std::vector<std::string> fleet = shardLines(path_);
  const std::vector<std::string> solo = shardLines(soloPath);
  EXPECT_EQ(fleet.size(), solo.size());
  EXPECT_EQ(fleet, solo);  // byte-identical records, not just equal counts
  std::remove(soloPath.c_str());
}

TEST_F(FleetFixture, WorkersWithoutAResolverRunTheSubmittersWorkloads) {
  // "alpha" and "beta" are not progs registry programs: a worker could not
  // rebuild them. With no resolver set, runFleet's workers inherit the
  // suite's own workloads, so every shard runs in a worker and none is left
  // for the in-process final pass.
  const std::vector<CellSpec> cells = mixedCells();
  SuiteConfig config;
  config.shardSize = 16;
  const CampaignSuite suite = makeSuite(cells, config);
  LocalFleetOptions options;
  options.workers = 2;
  options.config.pollMs = 2;
  const std::vector<CampaignResult> results =
      runFleet(suite, config, path_, options);
  const std::vector<CampaignResult> refs = makeSuite(cells, config).run();
  ASSERT_EQ(results.size(), refs.size());
  for (std::size_t i = 0; i < refs.size(); ++i) {
    EXPECT_EQ(results[i].counts, refs[i].counts) << "cell " << i;
    EXPECT_EQ(results[i].activationHist, refs[i].activationHist)
        << "cell " << i;
    EXPECT_TRUE(results[i].complete()) << "cell " << i;
  }
  expectWorkersRanEveryShard(path_);
}

TEST_F(FleetFixture, PrunedFleetShardRecordsAreByteIdenticalToSoloRecords) {
  // Inherited workloads carry the submitter's prune policy, so fleet
  // workers prune and persist outcome records exactly as a pruned solo run
  // does; shard records stay byte-identical.
  alpha_ = std::make_shared<Workload>(lang::compileMiniC(kAlpha),
                                      Workload::kDefaultHangFactor,
                                      SnapshotPolicy{}, PrunePolicy::on());
  beta_ = std::make_shared<Workload>(lang::compileMiniC(kBeta),
                                     Workload::kDefaultHangFactor,
                                     SnapshotPolicy{}, PrunePolicy::on());
  const std::vector<CellSpec> cells = mixedCells();
  SuiteConfig config;
  config.shardSize = 16;
  {
    LocalFleetOptions options;
    options.workers = 2;
    options.config.pollMs = 2;
    (void)runFleet(makeSuite(cells, config), config, path_, options);
  }
  expectWorkersRanEveryShard(path_);
  const std::string soloPath = path_ + ".solo";
  std::remove(soloPath.c_str());
  {
    CampaignStore store(soloPath);
    SuiteConfig recordConfig = config;
    recordConfig.record = &store;
    (void)makeSuite(cells, recordConfig).run();
  }
  EXPECT_EQ(shardLines(path_), shardLines(soloPath));
  const std::string outcome = "\"kind\":\"outcome\"";
  EXPECT_GT(countLines(soloPath, outcome), 0u);
  EXPECT_GT(countLines(path_, outcome), 0u);
  std::remove(soloPath.c_str());
}

TEST_F(FleetFixture, ResolverWithAnotherHangFactorIsRefusedAsAKeyMismatch) {
  const auto cell = FleetBroker::makeCell(
      "alpha", *alpha_, FaultModel::singleBit(FaultDomain::RegisterRead), 32,
      0xaaa1, 16);
  ASSERT_TRUE(cell.has_value());
  {
    FleetBroker broker(path_);
    ASSERT_TRUE(broker.submit(*cell));
  }
  // Same program, different faulty-run budget: a different fingerprint, so
  // the worker must not record its shards under the submitted key.
  const auto skewed = std::make_shared<const Workload>(
      lang::compileMiniC(kAlpha), 2 * alpha_->hangFactor());
  FleetConfig config;
  config.pollMs = 2;
  config.workloadResolver = [skewed](const CampaignStore::CellRecord&) {
    return skewed;
  };
  FleetWorker worker(path_, "", config);
  EXPECT_EQ(worker.run(), FleetWorker::Step::Stalled);
  EXPECT_EQ(worker.shardsRun(), 0u);
  EXPECT_TRUE(shardLines(path_).empty());
}

TEST_F(FleetFixture, StandaloneWorkerResolvesRegistryPrograms) {
  // No suite to inherit: the worker compiles the named registry program
  // itself (once, memoised across both cells) and must reproduce the
  // submitter's keys and records.
  const progs::ProgramInfo* info = progs::findProgram("crc32");
  ASSERT_NE(info, nullptr);
  const Workload crc(progs::compileProgram(*info));
  SuiteConfig config;
  config.shardSize = 8;
  CampaignSuite suite(config);
  suite.addCell("read", crc, FaultModel::singleBit(FaultDomain::RegisterRead),
                24, 0xc1, "crc32");
  suite.addCell("write", crc,
                FaultModel::singleBit(FaultDomain::RegisterWrite), 16, 0xc2,
                "crc32");
  {
    FleetBroker broker(path_);
    for (std::size_t c = 0; c < suite.cellCount(); ++c) {
      const SuiteCell& cell = suite.cell(c);
      const auto rec = FleetBroker::makeCell(
          cell.storeName, crc, cell.model, cell.experiments, cell.seed,
          config.shardSize);
      ASSERT_TRUE(rec.has_value());
      ASSERT_TRUE(broker.submit(*rec));
    }
  }
  FleetConfig fleet;
  fleet.pollMs = 2;
  FleetWorker worker(path_, "", fleet);
  EXPECT_EQ(worker.run(), FleetWorker::Step::Done);
  EXPECT_EQ(worker.shardsRun(), 5u);
  expectWorkersRanEveryShard(path_);

  const std::string soloPath = path_ + ".solo";
  std::remove(soloPath.c_str());
  {
    CampaignStore store(soloPath);
    SuiteConfig recordConfig = config;
    recordConfig.record = &store;
    CampaignSuite solo(recordConfig);
    for (std::size_t c = 0; c < suite.cellCount(); ++c) {
      solo.addCell(suite.cell(c));
    }
    (void)solo.run();
  }
  EXPECT_EQ(shardLines(path_), shardLines(soloPath));
  std::remove(soloPath.c_str());
}

TEST_F(FleetFixture, WorkerClaimsInLptOrderAndPicksUpLateCells) {
  // The worker keeps its cell list across claims; the claim order must
  // still be exactly the LPT order recomputed from scratch before every
  // claim, including after a cell is submitted mid-run.
  std::vector<CampaignStore::CellRecord> submitted;
  auto submit = [&](const CellSpec& spec) {
    const auto rec =
        FleetBroker::makeCell(spec.name, workloadOf(spec), spec.model,
                              spec.experiments, spec.seed, 16);
    ASSERT_TRUE(rec.has_value());
    FleetBroker broker(path_);
    ASSERT_TRUE(broker.submit(*rec));
    submitted.push_back(*rec);
  };
  for (const CellSpec& spec : mixedCells()) submit(spec);
  const CellSpec late{"beta", FaultModel::singleBit(FaultDomain::RegisterRead),
                      400, 0xbbb3};

  // The oracle: cells by descending dynInstrs × pending experiments (ties
  // in submission order), the lowest unrecorded shard of the first one.
  std::set<std::pair<std::uint64_t, std::size_t>> recorded;
  auto expectedNext = [&]() -> std::optional<std::pair<std::uint64_t,
                                                       std::size_t>> {
    std::optional<std::pair<std::uint64_t, std::size_t>> best;
    std::uint64_t bestCost = 0;
    for (const CampaignStore::CellRecord& cell : submitted) {
      std::size_t pending = 0;
      std::optional<std::size_t> lowest;
      for (std::size_t s = 0; s < cell.geometry().shards(); ++s) {
        if (recorded.count({cell.key, s}) != 0) continue;
        pending += cell.geometry().count(s);
        if (!lowest) lowest = s;
      }
      if (lowest && (!best || cell.dynInstrs * pending > bestCost)) {
        best = {{cell.key, *lowest}};
        bestCost = cell.dynInstrs * pending;
      }
    }
    return best;
  };

  FleetWorker worker(path_, "", fleetConfig());
  CampaignStore reader(path_, CampaignStore::WriteMode::Atomic);
  for (std::size_t step = 0;; ++step) {
    if (step == 3) submit(late);
    const auto expected = expectedNext();
    if (!expected) {
      EXPECT_EQ(worker.step(), FleetWorker::Step::Done);
      break;
    }
    ASSERT_EQ(worker.step(), FleetWorker::Step::Ran) << "step " << step;
    reader.load();
    std::vector<std::pair<std::uint64_t, std::size_t>> fresh;
    for (const CampaignStore::CellRecord& cell : submitted) {
      for (std::size_t s = 0; s < cell.geometry().shards(); ++s) {
        if (recorded.count({cell.key, s}) == 0 &&
            reader.findShard(cell.key, cell.geometry().first(s),
                             cell.geometry().count(s)) != nullptr) {
          fresh.emplace_back(cell.key, s);
        }
      }
    }
    ASSERT_EQ(fresh.size(), 1u) << "step " << step;
    EXPECT_EQ(fresh[0], *expected) << "step " << step;
    recorded.insert(fresh[0]);
  }
  EXPECT_EQ(recorded.size(), 26u + 25u);
}

TEST_F(FleetFixture, CompactDropsEveryLeaseOfAFinishedFleetRun) {
  const std::vector<CellSpec> cells = mixedCells();
  SuiteConfig config;
  config.shardSize = 16;
  {
    const CampaignSuite suite = makeSuite(cells, config);
    LocalFleetOptions options;
    options.workers = 2;
    options.config = fleetConfig();
    (void)runFleet(suite, config, path_, options);
  }
  // Every shard is recorded, so every lease is superseded — compaction must
  // drop them all (nowMs = 0: superseded-ness alone, no clock involved)
  // while keeping the cell records and every shard.
  const auto stats = CampaignStore::compact(path_);
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->leaseRecords, 0u);
  EXPECT_GT(stats->droppedLeases, 0u);
  EXPECT_EQ(stats->cellRecords, cells.size());
  EXPECT_TRUE(stats->rewritten);

  CampaignStore store(path_);
  const CampaignStore::LoadStats loaded = store.load();
  EXPECT_EQ(loaded.leaseRecords, 0u);
  EXPECT_EQ(loaded.cellRecords, cells.size());
  EXPECT_EQ(loaded.malformed, 0u);

  // The compacted store still resumes every cell bit-identically.
  SuiteConfig resumeConfig = config;
  resumeConfig.resume = &store;
  const std::vector<CampaignResult> resumed =
      makeSuite(cells, resumeConfig).run();
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(resumed[i].resumedExperiments, cells[i].experiments);
    EXPECT_EQ(resumed[i].counts, solo(cells[i]).counts);
  }
}

}  // namespace
}  // namespace onebit::fi
