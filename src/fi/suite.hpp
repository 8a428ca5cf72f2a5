// Campaign suites: N campaigns ("cells") scheduled as ONE unit — the one
// way a campaign runs.
//
// The paper's artifacts are cross-products — every Table II workload × every
// fault model × sweep axes like flip width and hang factor (§III-E,
// Figs. 1–5) — not single campaigns. Running such a sweep one campaign at a
// time puts a thread-pool drain barrier after every campaign: while the tail
// shards of campaign k finish, every other worker idles instead of starting
// campaign k+1. A CampaignSuite takes the whole sweep declaratively — one
// cell per campaign — and interleaves *all* shards from *all* cells onto a
// single shared util::ThreadPool, so the only barrier is the one at the end
// of the suite. runCampaign() is a one-cell suite.
//
// Determinism contract (extends fi/campaign.hpp): a cell's outcome counts
// and activation histogram depend ONLY on its (model, experiments, seed).
// Cells share the pool but no state; shard aggregates land in per-cell
// per-shard slots and are merged in shard order per cell. A cell's result
// is therefore bit-identical to runCampaign() of the same campaign — for
// any thread count, shard size, cell order, and cell mix. Store records are
// unchanged as well (each cell keeps its own campaign key), so a store
// written by one suite resumes in any other.
//
// Scheduling: cells are enqueued longest-estimated-first (fi::lptOrder;
// estimated cost = the workload's golden dynamic instruction count × the
// cell's pending experiments — the classic LPT makespan heuristic), so the
// most expensive cell starts the moment the pool spins up regardless of
// addCell order, and cheap cells pack the tail of the schedule instead of
// delaying the long pole. Ties keep addCell order; scheduling order never
// affects results. Each shard runs through the cell's fi::ShardExecutor
// (fi/shard_executor.hpp), the unit fleet workers run shards through too.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "fi/campaign.hpp"
#include "fi/campaign_store.hpp"

namespace onebit::fi {

/// One campaign of a suite: a fault-model cell of the sweep cross-product.
/// `workload` must outlive CampaignSuite::run(). A cell prunes exactly when
/// its workload was built with PrunePolicy.enabled (fi/outcome_cache.hpp):
/// results are bit-identical either way, and with a store bound the cache
/// entries persist as "outcome" records alongside the shard records.
struct SuiteCell {
  std::string label;  ///< shown by progress callbacks; free-form
  const Workload* workload = nullptr;
  FaultModel model;
  std::size_t experiments = 0;
  std::uint64_t seed = 0;
  /// Workload name stamped into store records (the `workload` field of
  /// shard records).
  std::string storeName;
};

/// Progress snapshot, delivered once per tallied shard (fresh or resumed).
/// Callbacks are serialized (never concurrent), but shards complete in
/// scheduling order, so `shardIndex` is not monotonic; use the completed
/// counters for progress. `cellLabel` and `shardCounts` are only valid for
/// the duration of the callback.
struct SuiteProgress {
  std::size_t cellIndex;         ///< which cell the shard belongs to
  const std::string& cellLabel;  ///< that cell's label
  std::size_t cellCompletedExperiments;
  std::size_t cellTotalExperiments;
  std::size_t completedCells;  ///< cells fully tallied so far
  std::size_t cellCount;       ///< cells in the suite
  std::size_t suiteCompletedExperiments;
  std::size_t suiteTotalExperiments;
  bool resumed;  ///< this shard was merged from the results store
  /// Experiments short-circuited by outcome-equivalence pruning so far
  /// (across the whole suite, fresh shards only; 0 when no cell prunes).
  std::size_t suiteShortCircuited;
  std::size_t shardIndex;        ///< which shard of the cell finished
  std::size_t shardCount;        ///< shards in the cell
  std::size_t firstExperiment;   ///< first experiment index of the shard
  std::size_t shardExperiments;  ///< experiments in this shard
  std::size_t completedShards;   ///< the cell's shards tallied so far
  const stats::OutcomeCounts& shardCounts;  ///< this shard's local tally
};

/// How a suite schedules its cells. Shard geometry is resolved per cell
/// from `shardSize` and the cell's experiment count, so store geometry does
/// not depend on the cell mix.
struct SuiteConfig {
  std::size_t threads = 0;    ///< shared pool size; 0 = hardware concurrency
  std::size_t shardSize = 0;  ///< experiments per shard; 0 = per-cell auto
  /// Per-cell cap on freshly executed shards (0 = run to completion). A
  /// capped cell yields a partial result (complete() == false); with a
  /// bound store it checkpoints exactly the shards it ran — the knob that
  /// makes interruption testable without killing the process.
  std::size_t maxShards = 0;
  CampaignStore* record = nullptr;        ///< append completed shards here
  const CampaignStore* resume = nullptr;  ///< merge recorded shards from here
};

/// Declarative multi-campaign scheduler. Add cells, then run() once: every
/// cell's shards execute interleaved on one pool.
class CampaignSuite {
 public:
  using ProgressCallback = std::function<void(const SuiteProgress&)>;

  explicit CampaignSuite(SuiteConfig config = {});

  /// Queue one campaign cell; returns its index into run()'s result vector.
  std::size_t addCell(SuiteCell cell);
  std::size_t addCell(std::string label, const Workload& workload,
                      FaultModel model, std::size_t experiments,
                      std::uint64_t seed, std::string storeName = {});

  /// Install the progress callback (serialized; one call per tallied
  /// shard). Returns *this.
  CampaignSuite& onProgress(ProgressCallback cb);

  [[nodiscard]] std::size_t cellCount() const noexcept {
    return cells_.size();
  }
  [[nodiscard]] std::size_t totalExperiments() const noexcept;
  [[nodiscard]] const SuiteCell& cell(std::size_t idx) const {
    return cells_[idx];
  }

  /// Run every cell and return one CampaignResult per cell, in addCell()
  /// order. Callable repeatedly (results are recomputed each time).
  [[nodiscard]] std::vector<CampaignResult> run() const;

 private:
  SuiteConfig config_;
  std::vector<SuiteCell> cells_;
  ProgressCallback progress_;
};

/// Run one campaign as a one-cell suite under `schedule`. See the
/// determinism contract at the top of fi/campaign.hpp.
CampaignResult runCampaign(const Workload& workload,
                           const CampaignConfig& config,
                           const SuiteConfig& schedule = {});

}  // namespace onebit::fi
