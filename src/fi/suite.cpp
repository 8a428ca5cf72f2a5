#include "fi/suite.hpp"

#include <atomic>
#include <cstdio>
#include <mutex>
#include <utility>

#include "fi/shard_executor.hpp"
#include "util/thread_pool.hpp"

namespace onebit::fi {

namespace {

/// Per-cell execution state: the cell's executor, its shard slots, and the
/// resumed/pending partition. A function of the cell and the SuiteConfig
/// alone — never of the other cells — which is the whole argument that a
/// cell's result does not depend on the suite it runs in.
struct CellPlan {
  explicit CellPlan(ShardExecutor e) : exec(std::move(e)) {}

  ShardExecutor exec;
  std::vector<ShardTally> partial;
  std::vector<unsigned char> resumed;
  std::vector<std::size_t> pending;
  std::size_t resumedExperiments = 0;
  // Progress-side counters, guarded by the suite's progress mutex.
  std::size_t completedShards = 0;
  std::size_t completedExperiments = 0;
};

}  // namespace

CampaignSuite::CampaignSuite(SuiteConfig config) : config_(config) {}

std::size_t CampaignSuite::addCell(SuiteCell cell) {
  cells_.push_back(std::move(cell));
  return cells_.size() - 1;
}

std::size_t CampaignSuite::addCell(std::string label, const Workload& workload,
                                   FaultModel spec, std::size_t experiments,
                                   std::uint64_t seed, std::string storeName) {
  return addCell(SuiteCell{std::move(label), &workload, spec, experiments,
                           seed, std::move(storeName)});
}

CampaignSuite& CampaignSuite::onProgress(ProgressCallback cb) {
  progress_ = std::move(cb);
  return *this;
}

std::size_t CampaignSuite::totalExperiments() const noexcept {
  std::size_t total = 0;
  for (const SuiteCell& cell : cells_) total += cell.experiments;
  return total;
}

std::vector<CampaignResult> CampaignSuite::run() const {
  const std::size_t nCells = cells_.size();
  const std::size_t threads = resolveThreads(config_.threads);

  // Plan every cell up front: its executor, the resume partition (consulting
  // the store index once per shard), and the per-cell checkpoint cap.
  std::vector<CellPlan> plans;
  plans.reserve(nCells);
  std::size_t suiteTotal = 0;
  for (const SuiteCell& cell : cells_) {
    const std::size_t n = cell.experiments;
    suiteTotal += n;
    CellPlan& plan = plans.emplace_back(
        ShardExecutor(cell, resolveShardSize(n, config_.shardSize),
                      config_.resume, config_.record));
    const ShardGeometry& geo = plan.exec.geometry();
    plan.partial.resize(geo.shards());
    plan.resumed.assign(geo.shards(), 0);
    plan.pending.reserve(geo.shards());
    for (std::size_t s = 0; s < geo.shards(); ++s) {
      if (config_.resume != nullptr) {
        if (const CampaignStore::ShardAggregate* agg =
                config_.resume->findShard(plan.exec.meta().key, geo.first(s),
                                          geo.count(s))) {
          plan.partial[s].counts = agg->counts;
          plan.partial[s].hist = agg->hist;
          plan.resumed[s] = 1;
          plan.resumedExperiments += geo.count(s);
          continue;
        }
      }
      plan.pending.push_back(s);
    }
    // The checkpoint cap: execute at most maxShards fresh shards per cell
    // this run (lowest shard indices first, so repeated capped runs make
    // monotonic progress through each campaign).
    if (config_.maxShards != 0 && plan.pending.size() > config_.maxShards) {
      plan.pending.resize(config_.maxShards);
    }
    // Shard-geometry foot-gun diagnostic: the store has experiments recorded
    // under this cell's campaign key, yet none matched the current shard
    // ranges — almost always a shardSize change between the recording and
    // resuming runs. The cell still computes correctly; it just re-runs.
    if (config_.resume != nullptr && n != 0 && plan.resumedExperiments == 0) {
      const std::size_t recorded =
          config_.resume->recordedExperiments(plan.exec.meta().key);
      if (recorded != 0) {
        std::fprintf(stderr,
                     "warning: campaign store has %zu experiment(s) recorded "
                     "for campaign '%s', but none match the current shard "
                     "geometry (shardSize=%zu); re-running them\n",
                     recorded, cell.label.c_str(), geo.shardSize);
      }
    }
  }

  std::mutex progressMutex;
  std::size_t suiteCompleted = 0;
  std::size_t suiteShortCircuited = 0;
  std::size_t completedCells = 0;
  for (const SuiteCell& cell : cells_) {
    if (cell.experiments == 0) ++completedCells;
  }
  std::atomic<bool> storeWriteFailed{false};
  const bool reporting = progress_ != nullptr;

  // Advance counters and fire the callback for one tallied shard.
  // Callers hold progressMutex, so callbacks are serialized and the
  // counters are consistent.
  auto report = [&](std::size_t c, std::size_t s, bool resumedShard) {
    CellPlan& plan = plans[c];
    const SuiteCell& cell = plan.exec.cell();
    const ShardGeometry& geo = plan.exec.geometry();
    const std::size_t cnt = geo.count(s);
    ++plan.completedShards;
    plan.completedExperiments += cnt;
    suiteCompleted += cnt;
    if (!resumedShard) {
      suiteShortCircuited += plan.partial[s].prune.shortCircuited();
    }
    if (plan.completedExperiments == cell.experiments) ++completedCells;
    progress_(SuiteProgress{c, cell.label, plan.completedExperiments,
                            cell.experiments, completedCells, nCells,
                            suiteCompleted, suiteTotal, resumedShard,
                            suiteShortCircuited, s, geo.shards(),
                            geo.first(s), cnt, plan.completedShards,
                            plan.partial[s].counts});
  };

  // Report resumed shards before starting fresh work: cell order, then
  // shard order within the cell.
  if (reporting) {
    std::lock_guard lock(progressMutex);
    for (std::size_t c = 0; c < nCells; ++c) {
      for (std::size_t s = 0; s < plans[c].resumed.size(); ++s) {
        if (plans[c].resumed[s] != 0) report(c, s, /*resumed=*/true);
      }
    }
  }

  // Enqueue cells in LPT order (cells with nothing pending never touch
  // their workload — a zero-experiment cell may not have one). Each shard
  // writes its own slot and the per-cell merge is in shard order, so the
  // task order can never change results.
  std::vector<PendingWork> work(nCells);
  for (std::size_t c = 0; c < nCells; ++c) {
    const CellPlan& plan = plans[c];
    if (plan.pending.empty()) continue;
    for (const std::size_t s : plan.pending) {
      work[c].experiments += plan.exec.geometry().count(s);
    }
    work[c].goldenInstrs = plan.exec.cell().workload->golden().instructions;
  }
  std::vector<std::pair<std::size_t, std::size_t>> tasks;
  for (const std::size_t c : lptOrder(work)) {
    for (const std::size_t s : plans[c].pending) tasks.emplace_back(c, s);
  }

  auto runTask = [&](std::size_t t) {
    const auto [c, s] = tasks[t];
    CellPlan& plan = plans[c];
    plan.partial[s] = plan.exec.run(s);
    if (config_.record != nullptr &&
        !plan.exec.record(*config_.record, s, plan.partial[s]) &&
        !storeWriteFailed.exchange(true)) {
      // Warn once per run: a silently unwritable store would let the user
      // kill the run believing its shards are persisted.
      std::fprintf(stderr,
                   "warning: campaign store '%s' is not recording (write "
                   "failed); this run will NOT be resumable\n",
                   config_.record->path().c_str());
    }
    if (reporting) {
      std::lock_guard lock(progressMutex);
      report(c, s, /*resumed=*/false);
    }
  };

  if (threads > 1 && tasks.size() > 1) {
    util::ThreadPool pool(threads);
    pool.parallelFor(tasks.size(), runTask);
  } else {
    for (std::size_t t = 0; t < tasks.size(); ++t) runTask(t);
  }

  // Assemble per-cell results, merging in shard order (resumed and executed
  // shards alike; shards skipped by a capped run stay out). Order does not
  // affect the result — integer adds commute — but it is fixed anyway so
  // intermediate states are reproducible.
  std::vector<CampaignResult> results(nCells);
  for (std::size_t c = 0; c < nCells; ++c) {
    const SuiteCell& cell = cells_[c];
    CellPlan& plan = plans[c];
    CampaignResult& result = results[c];
    result.config = {cell.model, cell.experiments, cell.seed};
    result.resumedExperiments = plan.resumedExperiments;
    std::vector<unsigned char> tallied = std::move(plan.resumed);
    for (const std::size_t s : plan.pending) tallied[s] = 1;
    for (std::size_t s = 0; s < tallied.size(); ++s) {
      if (tallied[s] == 0) continue;
      result.completedExperiments += plan.exec.geometry().count(s);
      result.counts.merge(plan.partial[s].counts);
      mergeHistogram(result.activationHist, plan.partial[s].hist);
      result.prune += plan.partial[s].prune;  // zeros on resumed shards
    }
  }
  return results;
}

CampaignResult runCampaign(const Workload& workload,
                           const CampaignConfig& config,
                           const SuiteConfig& schedule) {
  CampaignSuite suite(schedule);
  suite.addCell(config.model.label(), workload, config.model,
                config.experiments, config.seed);
  return suite.run().front();
}

}  // namespace onebit::fi
