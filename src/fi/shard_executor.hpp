// The one shard executor: how a campaign cell is set up, how one of its
// shards runs and is tallied and recorded, and in which order cells take
// their turn. CampaignSuite runs cells on the threads of one process and
// FleetWorker on worker processes; both go through this unit, so a shard's
// record is the same bytes whichever of them ran it (the determinism
// contract of fi/suite.hpp and fi/fleet.hpp), and a per-shard counter is
// added in one place.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "fi/campaign_store.hpp"
#include "fi/outcome_cache.hpp"
#include "fi/suite.hpp"

namespace onebit::fi {

/// Tally of one shard's experiments. The store records counts and hist;
/// prune counters are scheduling-dependent diagnostics and stay local.
struct ShardTally {
  stats::OutcomeCounts counts;
  ActivationHistogram hist{};
  PruneStats prune;

  void add(const ExperimentResult& r) noexcept;
};

/// One cell set up to run its shards: geometry, candidate count, campaign
/// key and store metadata, and — when the cell's workload prunes — its
/// outcome-equivalence cache. Shards of one executor may run concurrently.
class ShardExecutor {
 public:
  /// Set `cell` up under the resolved `shardSize`. A pruning cell's cache is
  /// warmed from `resume` and persists new entries to `record`; either may
  /// be null, and a fleet worker passes its one store as both. A cell of
  /// zero experiments has no shards and its workload is never read.
  ShardExecutor(SuiteCell cell, std::size_t shardSize,
                const CampaignStore* resume, CampaignStore* record);

  [[nodiscard]] const SuiteCell& cell() const noexcept { return cell_; }
  [[nodiscard]] const ShardGeometry& geometry() const noexcept {
    return geometry_;
  }
  /// The campaign key (meta().key) and the fields every shard record stamps.
  [[nodiscard]] const CampaignStore::CampaignMeta& meta() const noexcept {
    return meta_;
  }

  /// Run shard `shard`'s experiments in index order and tally them.
  /// `afterExperiment`, when set, runs after each experiment (the fleet
  /// worker's lease heartbeat).
  [[nodiscard]] ShardTally run(
      std::size_t shard,
      const std::function<void()>& afterExperiment = {}) const;

  /// Append shard `shard`'s tally to `store`; false on I/O failure.
  bool record(CampaignStore& store, std::size_t shard,
              const ShardTally& tally) const;

 private:
  SuiteCell cell_;
  ShardGeometry geometry_;
  std::uint64_t candidates_ = 0;
  CampaignStore::CampaignMeta meta_;
  std::unique_ptr<OutcomeCache> cache_;  ///< null unless the workload prunes
};

/// A cell's remaining work as the scheduling order sees it.
struct PendingWork {
  std::uint64_t goldenInstrs = 0;  ///< the workload's golden dynamic instrs
  std::size_t experiments = 0;     ///< experiments not yet tallied
};

/// Longest-processing-time-first order: the indices of the cells with
/// pending experiments, by descending golden instructions × pending
/// experiments, ties in index order. The long pole starts first and cheap
/// cells fill the tail. The order affects makespan, never results.
std::vector<std::size_t> lptOrder(const std::vector<PendingWork>& cells);

}  // namespace onebit::fi
