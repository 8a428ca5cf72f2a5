// Analytics subsystem tests (src/analytics/): the Dataset reader over
// campaign stores, the group-by/progress aggregations, and — through the
// sibling binaries in the build directory — the figure-regeneration
// contract: `report --figure figN` over a complete store is byte-identical
// to the driver's stdout, and a partial (live or interrupted) store is
// always EXPLICITLY marked partial, never reported as a final value.
#include <array>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include <unistd.h>

#include "analytics/aggregate.hpp"
#include "analytics/dataset.hpp"
#include "analytics/figures.hpp"
#include "analytics/knobs.hpp"
#include "analytics/summary.hpp"
#include "analytics/trend.hpp"
#include "fi/campaign_store.hpp"
#include "pruning/pessimistic_pairs.hpp"
#include "util/rng.hpp"

namespace onebit::analytics {
namespace {

using fi::CampaignStore;
using stats::Outcome;

constexpr std::uint64_t kKey = 0xabcdef0123456789ULL;
constexpr std::size_t kExperiments = 60;
constexpr std::size_t kShardSize = 20;  // 3 shards

CampaignStore::CampaignMeta testMeta() {
  CampaignStore::CampaignMeta meta;
  meta.key = kKey;
  meta.workload = "crc32";
  meta.specLabel = "read/single";
  meta.seed = 0x5eedULL;
  meta.experiments = kExperiments;
  meta.candidates = 1234;
  return meta;
}

/// Shard `i` of the synthetic campaign: distinguishable outcome mix so
/// aggregation mistakes show up as wrong totals, not just wrong counts.
/// The store validates histTotal == count on load, so the histogram must
/// bucket every experiment (10 Benign, 7 Detected, 3 SDC per shard).
CampaignStore::ShardAggregate testShard(std::size_t i) {
  CampaignStore::ShardAggregate agg;
  for (std::size_t k = 0; k < kShardSize; ++k) {
    agg.counts.add(k % 2 == 0 ? Outcome::Benign
                              : (k % 3 == 0 ? Outcome::SDC
                                            : Outcome::Detected));
  }
  agg.hist[static_cast<std::size_t>(Outcome::Benign)][0] = 10;
  agg.hist[static_cast<std::size_t>(Outcome::Detected)][i + 1] = 7;
  agg.hist[static_cast<std::size_t>(Outcome::SDC)][2] = 3;
  return agg;
}

void writeShards(CampaignStore& store, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    ASSERT_TRUE(store.appendShard(testMeta(), i, i * kShardSize, kShardSize,
                                  testShard(i)));
  }
}

std::string readFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

class AnalyticsFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "analytics_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".jsonl";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
};

TEST_F(AnalyticsFixture, DatasetAggregatesACompleteCampaign) {
  {
    CampaignStore store(path_);
    store.load();
    writeShards(store, 3);
  }
  Dataset ds;
  ds.addStore(path_);
  ASSERT_EQ(ds.campaigns().size(), 1u);
  const CampaignTable& table = ds.campaigns().at(kKey);
  EXPECT_EQ(table.workload(), "crc32");
  EXPECT_EQ(table.specLabel(), "read/single");
  EXPECT_EQ(table.recordedExperiments(), kExperiments);
  EXPECT_EQ(table.expectedExperiments(), kExperiments);
  EXPECT_TRUE(table.complete());
  EXPECT_EQ(table.totals().total(), kExperiments);
  EXPECT_EQ(table.totals().count(Outcome::Benign), 30u);
  // Histograms merge across shards: one bucket per shard, value 7.
  const fi::ActivationHistogram hist = table.histogram();
  EXPECT_EQ(hist[static_cast<std::size_t>(Outcome::Detected)][1], 7u);
  EXPECT_EQ(hist[static_cast<std::size_t>(Outcome::Detected)][3], 7u);
}

TEST_F(AnalyticsFixture, PartialCampaignIsNeverReportedComplete) {
  {
    CampaignStore store(path_);
    store.load();
    writeShards(store, 2);  // 40 of 60 experiments
  }
  Dataset ds;
  ds.addStore(path_);
  const CampaignTable& table = ds.campaigns().at(kKey);
  EXPECT_EQ(table.recordedExperiments(), 40u);
  EXPECT_FALSE(table.complete());
  // ... and a campaign whose expected size is unknown must not be promoted
  // to complete just because recorded == 0 == expected.
  CampaignTable unknown;
  EXPECT_FALSE(unknown.complete());
  // The group rollup carries the same flag and marks the SDC% partial.
  const std::vector<GroupRow> rows = groupBy(ds, GroupAxes{});
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_FALSE(rows[0].complete());
  const std::string text = renderTable(groupTable(rows), false);
  EXPECT_NE(text.find("(partial)"), std::string::npos);
}

TEST_F(AnalyticsFixture, TornTailAndGarbageDoNotChangeAggregates) {
  {
    CampaignStore store(path_);
    store.load();
    writeShards(store, 3);
  }
  Dataset clean;
  clean.addStore(path_);
  // Mid-file garbage is impossible to append here, but a torn tail — a
  // writer killed mid-record — is exactly what a live fleet store can show
  // a reader. Also a fully garbled line (unterminated, then terminated).
  {
    std::ofstream out(path_, std::ios::app);
    out << "{\"kind\":\"shard\",\"v\":1,\"key\":\"0x";  // torn, no newline
  }
  Dataset torn;
  torn.addStore(path_);
  ASSERT_EQ(torn.campaigns().size(), 1u);
  EXPECT_EQ(torn.campaigns().at(kKey).totals().raw(),
            clean.campaigns().at(kKey).totals().raw());
  EXPECT_EQ(torn.campaigns().at(kKey).recordedExperiments(), kExperiments);
}

TEST_F(AnalyticsFixture, CompactedStoreAggregatesIdentically) {
  const std::string dup = path_ + ".dup";
  {
    CampaignStore store(path_);
    store.load();
    writeShards(store, 3);
  }
  // Cross-process writers bypass each other's in-memory dedup, so a shared
  // store accumulates duplicate records — modeled here by doubling the
  // file, the pattern compact() exists for.
  {
    std::ofstream out(dup, std::ios::trunc);
    out << readFile(path_) << readFile(path_);  // every record twice
  }
  Dataset original;
  original.addStore(path_);
  ASSERT_TRUE(CampaignStore::compact(dup).has_value());
  Dataset compacted;
  compacted.addStore(dup);
  EXPECT_EQ(compacted.campaigns().at(kKey).totals().raw(),
            original.campaigns().at(kKey).totals().raw());
  EXPECT_EQ(compacted.campaigns().at(kKey).recordedExperiments(),
            kExperiments);
  EXPECT_EQ(compacted.campaigns().at(kKey).histogram(),
            original.campaigns().at(kKey).histogram());
  std::remove(dup.c_str());
}

TEST_F(AnalyticsFixture, MultiStoreMergeIsIdempotentFirstWins) {
  const std::string full = path_ + ".full";
  {
    CampaignStore store(path_);
    store.load();
    writeShards(store, 2);  // partial snapshot
  }
  {
    CampaignStore store(full);
    store.load();
    writeShards(store, 3);  // complete snapshot of the same campaign
  }
  Dataset merged;
  merged.addStore(path_);
  merged.addStore(full);
  ASSERT_EQ(merged.campaigns().size(), 1u);
  const CampaignTable& table = merged.campaigns().at(kKey);
  // Overlapping shard ranges must merge by identity, not double-count.
  EXPECT_EQ(table.recordedExperiments(), kExperiments);
  EXPECT_TRUE(table.complete());
  EXPECT_EQ(table.totals().total(), kExperiments);
  EXPECT_EQ(merged.sources().size(), 2u);
  std::remove(full.c_str());
}

TEST_F(AnalyticsFixture, PollPicksUpRecordsALiveWriterAppends) {
  CampaignStore writer(path_);
  writer.load();
  writeShards(writer, 1);
  Dataset ds;
  ds.addStore(path_);
  EXPECT_EQ(ds.campaigns().at(kKey).recordedExperiments(), kShardSize);
  EXPECT_FALSE(ds.campaigns().at(kKey).complete());
  // The fleet keeps appending while the dashboard watches.
  writeShards(writer, 3);
  ds.poll();
  EXPECT_EQ(ds.campaigns().at(kKey).recordedExperiments(), kExperiments);
  EXPECT_TRUE(ds.campaigns().at(kKey).complete());
  // A reader must never create a writer-side lock file.
  EXPECT_NE(::access(path_.c_str(), F_OK), -1);
  EXPECT_EQ(::access((path_ + ".lock").c_str(), F_OK), -1);
}

TEST_F(AnalyticsFixture, SnapshotMatchesVisitorWalk) {
  CampaignStore store(path_);
  store.load();
  writeShards(store, 3);
  CampaignStore::LeaseRecord lease;
  lease.first = 0;
  lease.count = kShardSize;
  lease.worker = "w1";
  lease.epoch = 1;
  lease.deadlineMs = 42;
  ASSERT_TRUE(store.appendLease(kKey, lease));
  const CampaignStore::Snapshot snap = store.snapshot();
  ASSERT_EQ(snap.campaigns.size(), 1u);
  const auto& campaign = snap.campaigns.at(kKey);
  EXPECT_EQ(campaign.meta.workload, "crc32");
  EXPECT_EQ(campaign.shards.size(), 3u);
  EXPECT_EQ(campaign.leases.size(), 1u);
  for (const auto& [range, agg] : campaign.shards) {
    const auto* direct = store.findShard(kKey, range.first, range.second);
    ASSERT_NE(direct, nullptr);
    EXPECT_EQ(agg.counts.raw(), direct->counts.raw());
  }
  // The snapshot is a copy: later appends must not mutate it.
  CampaignStore::LeaseRecord renewal = lease;
  renewal.deadlineMs = 99;
  ASSERT_TRUE(store.appendLease(kKey, renewal));
  EXPECT_EQ(snap.campaigns.at(kKey).leases.begin()->second.deadlineMs, 42u);
}

TEST_F(AnalyticsFixture, StoreTrendMarksPartialSnapshotsExplicitly) {
  const std::string later = path_ + ".later";
  {
    CampaignStore store(path_);
    store.load();
    writeShards(store, 1);
  }
  {
    CampaignStore store(later);
    store.load();
    writeShards(store, 3);
  }
  const std::string text =
      renderTable(storeTrendTable({path_, later}), false);
  EXPECT_NE(text.find("partial 20/60"), std::string::npos);
  const util::Json json = storeTrendJson({path_, later});
  const util::Json* cells = json.find("cells");
  ASSERT_NE(cells, nullptr);
  std::remove(later.c_str());
}

// ---------------------------------------------------------------------------
// Selection knobs and the render-as-plan contract: a renderer asks its
// CellSource for exactly the cells a driver must run, in order.

/// Sets ONEBIT_* selection knobs for one test and restores them after.
class ScopedEnv {
 public:
  ScopedEnv(std::initializer_list<std::pair<const char*, const char*>> vars) {
    for (const auto& [name, value] : vars) {
      const char* old = std::getenv(name);
      saved_.emplace_back(name, old == nullptr ? std::nullopt
                                               : std::optional<std::string>(old));
      if (value == nullptr) {
        ::unsetenv(name);
      } else {
        ::setenv(name, value, 1);
      }
    }
  }
  ~ScopedEnv() {
    for (const auto& [name, value] : saved_) {
      if (value) {
        ::setenv(name.c_str(), value->c_str(), 1);
      } else {
        ::unsetenv(name.c_str());
      }
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  std::vector<std::pair<std::string, std::optional<std::string>>> saved_;
};

TEST(Knobs, FlipWidthOutsideOneToSixtyFourFallsBackTo32) {
  for (const char* bad : {"-1", "0", "65"}) {
    const ScopedEnv env{{"ONEBIT_FLIP_WIDTH", bad}};
    EXPECT_EQ(flipWidth(), 32u) << bad;
  }
  for (const auto& [value, want] : {std::pair{"1", 1u}, std::pair{"64", 64u}}) {
    const ScopedEnv env{{"ONEBIT_FLIP_WIDTH", value}};
    EXPECT_EQ(flipWidth(), want) << value;
  }
}

/// One cell request as a CellSource sees it.
struct Request {
  std::string workload;
  std::string label;
  unsigned flipWidth = 0;
  std::uint64_t seed = 0;
  std::size_t experiments = 0;

  bool operator==(const Request&) const = default;
};

Request requestOf(const std::string& workload,
                  const fi::CampaignConfig& config) {
  return {workload, config.model.label(), config.model.flipWidth, config.seed,
          config.experiments};
}

/// A deterministic complete answer: `sdc` of `n` experiments are SDC, the
/// rest Benign.
CellResolution completeCell(std::size_t sdc, std::size_t n) {
  CellResolution r;
  for (std::size_t k = 0; k < n; ++k) {
    r.counts.add(k < sdc ? Outcome::SDC : Outcome::Benign);
  }
  r.state = CellResolution::State::Complete;
  r.recorded = n;
  r.expected = n;
  return r;
}

class RenderPlanFixture : public ::testing::Test {
 protected:
  static constexpr std::size_t kN = 8;

  /// The fig4 grid cells of qsort: read then write, 81 each.
  struct Grid {
    std::uint64_t baseSeed;
    std::vector<fi::CampaignConfig> configs;
  };
  std::vector<Grid> grids() const {
    std::vector<Grid> out;
    std::uint64_t salt = 50000;
    for (const fi::FaultDomain tech :
         {fi::FaultDomain::RegisterRead, fi::FaultDomain::RegisterWrite}) {
      const std::uint64_t base = util::hashCombine(masterSeed(), salt++);
      out.push_back({base, pruning::gridCampaigns(tech, kN, base, 32)});
    }
    return out;
  }

  /// Render fig4, answering grid cells from `grid` (Missing otherwise), and
  /// record every request.
  std::optional<FigureOutput> render(
      const std::map<std::pair<std::uint64_t, std::string>, CellResolution>&
          grid) {
    requests_.clear();
    return renderFigure(
        "fig4", [&](const std::string& workload, const fi::FaultModel& model,
                    std::uint64_t seed, std::size_t experiments) {
          requests_.push_back({workload, model.label(), model.flipWidth, seed,
                               experiments});
          const auto it = grid.find({seed, model.label()});
          if (it != grid.end()) return it->second;
          CellResolution missing;
          missing.expected = experiments;
          return missing;
        });
  }

  ScopedEnv env_{{"ONEBIT_PROGRAMS", "qsort"}, {"ONEBIT_EXPERIMENTS", "8"},
                 {"ONEBIT_SEED", nullptr},     {"ONEBIT_SPECS", nullptr},
                 {"ONEBIT_FLIP_WIDTH", nullptr}, {"ONEBIT_CSV", nullptr}};
  std::vector<Request> requests_;
};

TEST_F(RenderPlanFixture, MissingSourceSeesExactlyTheGridCellsInOrder) {
  const std::optional<FigureOutput> fig = render({});
  ASSERT_TRUE(fig.has_value());
  std::vector<Request> want;
  for (const Grid& g : grids()) {
    for (const fi::CampaignConfig& config : g.configs) {
      want.push_back(requestOf("qsort", config));
    }
  }
  ASSERT_EQ(want.size(), 162u);
  EXPECT_EQ(requests_, want);
  EXPECT_EQ(fig->cells, 162u);
  EXPECT_EQ(fig->incompleteCells, 162u);
}

TEST_F(RenderPlanFixture, CompleteGridAsksForOneValidationPerGrid) {
  std::map<std::pair<std::uint64_t, std::string>, CellResolution> answers;
  std::vector<Request> want;
  for (const Grid& g : grids()) {
    std::vector<pruning::CampaignSdc> all;
    for (std::size_t j = 0; j < g.configs.size(); ++j) {
      const CellResolution cell = completeCell((j * 7) % (kN + 1), kN);
      answers[{g.configs[j].seed, g.configs[j].model.label()}] = cell;
      all.push_back({g.configs[j].model,
                     cell.counts.proportion(Outcome::SDC)});
      want.push_back(requestOf("qsort", g.configs[j]));
    }
    const pruning::PessimisticPairResult best =
        pruning::selectPessimisticPair(std::move(all));
    ASSERT_TRUE(best.hasBest);
    want.push_back(requestOf(
        "qsort", pruning::validationCampaign(best.bestModel, kN, g.baseSeed,
                                             3)));
  }
  const std::optional<FigureOutput> fig = render(answers);
  ASSERT_TRUE(fig.has_value());
  EXPECT_EQ(requests_, want);
  // Only the two validation cells are outstanding.
  EXPECT_EQ(fig->incompleteCells, 2u);
}

TEST_F(RenderPlanFixture, PartialGridCellSuppressesThatGridsValidation) {
  std::map<std::pair<std::uint64_t, std::string>, CellResolution> answers;
  const std::vector<Grid> gs = grids();
  for (const Grid& g : gs) {
    for (std::size_t j = 0; j < g.configs.size(); ++j) {
      answers[{g.configs[j].seed, g.configs[j].model.label()}] =
          completeCell(j % (kN + 1), kN);
    }
  }
  // One read-grid cell only half recorded.
  CellResolution& partial =
      answers[{gs[0].configs[5].seed, gs[0].configs[5].model.label()}];
  partial.state = CellResolution::State::Partial;
  partial.recorded = kN / 2;
  const std::optional<FigureOutput> fig = render(answers);
  ASSERT_TRUE(fig.has_value());
  // 162 grid cells plus the write grid's validation; none for read.
  ASSERT_EQ(requests_.size(), 163u);
  for (std::size_t i = 0; i < 81; ++i) {
    EXPECT_EQ(requests_[i], requestOf("qsort", gs[0].configs[i]));
  }
  EXPECT_EQ(requests_[81], requestOf("qsort", gs[1].configs[0]));
  EXPECT_EQ(requests_[162].experiments, 3 * kN);
  EXPECT_NE(fig->text.find("incomplete("), std::string::npos);
  EXPECT_NE(fig->text.find("RQ2/RQ3: unavailable"), std::string::npos);
}

// Figure byte-identity, through the real binaries. The test locates its
// sibling executables next to its own binary and skips (never fails) when
// they are absent — e.g. under a partial build.

std::string buildDir() {
  std::array<char, 4096> buf{};
  const ssize_t n = ::readlink("/proc/self/exe", buf.data(), buf.size() - 1);
  if (n <= 0) return {};
  std::string path(buf.data(), static_cast<std::size_t>(n));
  const std::size_t slash = path.rfind('/');
  return slash == std::string::npos ? std::string() : path.substr(0, slash);
}

bool exists(const std::string& path) {
  return ::access(path.c_str(), X_OK) == 0;
}

int runShell(const std::string& command) {
  const int rc = std::system(command.c_str());
  return rc < 0 ? rc : WEXITSTATUS(rc);
}

class FigureIdentityFixture : public AnalyticsFixture {
 protected:
  void SetUp() override {
    AnalyticsFixture::SetUp();
    dir_ = buildDir();
    if (dir_.empty() || !exists(dir_ + "/bench_fig1_single_bit") ||
        !exists(dir_ + "/report")) {
      GTEST_SKIP() << "driver/report binaries not built next to the test";
    }
    out_ = path_ + ".out";
    // A tiny but real slice of Fig. 1: one program, 20 experiments/cell.
    env_ = "ONEBIT_EXPERIMENTS=20 ONEBIT_PROGRAMS=crc32 ";
  }
  void TearDown() override {
    std::remove(out_.c_str());
    std::remove((out_ + ".2").c_str());
    AnalyticsFixture::TearDown();
  }

  std::string dir_;
  std::string out_;
  std::string env_;
};

TEST_F(FigureIdentityFixture, ReportRegeneratesFig1ByteIdentically) {
  ASSERT_EQ(runShell("env " + env_ + "ONEBIT_STORE=" + path_ + " " + dir_ +
                     "/bench_fig1_single_bit > " + out_ + " 2>/dev/null"),
            0);
  ASSERT_EQ(runShell("env " + env_ + dir_ + "/report --figure fig1 " +
                     path_ + " > " + out_ + ".2 2>/dev/null"),
            0);
  EXPECT_EQ(readFile(out_), readFile(out_ + ".2"));
}

TEST_F(FigureIdentityFixture, IncompleteStoreExitsThreeWithMarkers) {
  // Cap the driver at one shard per cell: the store ends up partial, the
  // way a live or interrupted campaign would.
  ASSERT_EQ(runShell("env " + env_ +
                     "ONEBIT_SHARD_SIZE=8 ONEBIT_MAX_SHARDS=1 ONEBIT_STORE=" +
                     path_ + " " + dir_ +
                     "/bench_fig1_single_bit > /dev/null 2>&1"),
            0);
  EXPECT_EQ(runShell("env " + env_ + dir_ + "/report --figure fig1 " +
                     path_ + " > " + out_ + " 2>/dev/null"),
            3);
  const std::string text = readFile(out_);
  EXPECT_NE(text.find("incomplete("), std::string::npos);
  // No unmarked percentage sneaks into the partial table rows.
  EXPECT_EQ(text.find("20.0%"), std::string::npos);
}

TEST_F(FigureIdentityFixture, MissingCampaignRendersMissingMarker) {
  // Empty store: every cell is absent.
  { std::ofstream out(path_, std::ios::trunc); }
  EXPECT_EQ(runShell("env " + env_ + dir_ + "/report --figure fig1 " +
                     path_ + " > " + out_ + " 2>/dev/null"),
            3);
  EXPECT_NE(readFile(out_).find("missing"), std::string::npos);
}

}  // namespace
}  // namespace onebit::analytics
