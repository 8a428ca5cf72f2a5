// Campaigns: N independent experiments under one fault model (§III-E).
// CampaignConfig names a campaign; fi::CampaignSuite (fi/suite.hpp) runs it,
// alone through runCampaign() or as one cell of a sweep, as fixed-size
// shards of experiments batched onto a thread pool.
//
// Determinism contract: the outcome counts and activation histogram of a
// campaign depend ONLY on (model, experiments, seed). Experiment i derives its
// fault plan — and therefore its entire RNG stream — from (seed, i) alone, and
// shard aggregates are merged with commutative integer additions, so the
// suite's threads and shardSize affect scheduling and progress granularity
// but never the result.
//
// Checkpoint/resume rides on the shard boundary: a suite bound to a
// CampaignStore (fi/campaign_store.hpp) persists every completed shard and
// merges shards already in the store instead of re-executing them. Because
// a shard's aggregates depend only on (model, seed, experiment range), a
// campaign interrupted after k shards and resumed later is bit-identical to
// an uninterrupted run.
#pragma once

#include <array>
#include <cstdint>

#include "fi/experiment.hpp"

namespace onebit::fi {

/// A campaign's identity: everything its result depends on besides the
/// workload. How it is scheduled lives in fi::SuiteConfig.
struct CampaignConfig {
  FaultModel model;
  std::size_t experiments = 1000;
  std::uint64_t seed = 0x0b17f11e;  ///< campaign master seed
};

/// Resolve a requested worker-thread count: 0 picks hardware concurrency;
/// the result is clamped to [1, util::ThreadPool::kMaxThreads].
std::size_t resolveThreads(std::size_t requested) noexcept;

/// Resolve the per-campaign shard size. A nonzero request is clamped to
/// [1, experiments]; 0 selects the auto heuristic (~64 shards per campaign,
/// floor 16, ceiling 4096). Deliberately independent of the thread count so
/// store shard geometry is stable across machines.
std::size_t resolveShardSize(std::size_t experiments,
                             std::size_t requested) noexcept;

/// A campaign's shards: `experiments` split into consecutive ranges of
/// `shardSize` (resolved), the last one possibly short. Store records match
/// a shard by its exact (first, count) range, so every writer and reader of
/// shard ranges — suite, fleet worker, broker, supervisor — uses this one
/// definition.
struct ShardGeometry {
  std::size_t experiments = 0;
  std::size_t shardSize = 0;

  [[nodiscard]] std::size_t shards() const noexcept {
    return shardSize == 0 ? 0 : (experiments + shardSize - 1) / shardSize;
  }
  [[nodiscard]] std::size_t first(std::size_t shard) const noexcept {
    return shard * shardSize;
  }
  /// Experiments in `shard` (0 past the last shard).
  [[nodiscard]] std::size_t count(std::size_t shard) const noexcept {
    const std::size_t f = first(shard);
    if (f >= experiments) return 0;
    return experiments - f < shardSize ? experiments - f : shardSize;
  }
};

/// Histogram of activation counts by outcome (rows: outcome, cols: number of
/// activated errors, saturating at kMaxActivationBucket).
inline constexpr unsigned kMaxActivationBucket = 31;

/// hist[outcome][k] = experiments with that outcome that activated k errors
/// (k saturates at kMaxActivationBucket).
using ActivationHistogram =
    std::array<std::array<std::uint32_t, kMaxActivationBucket + 1>,
               stats::kOutcomeCount>;

/// Element-wise accumulate `from` into `into`.
void mergeHistogram(ActivationHistogram& into,
                    const ActivationHistogram& from) noexcept;

/// How outcome-equivalence pruning resolved the freshly executed experiments
/// of a campaign (resumed shards contribute nothing — they never ran).
/// Counter totals depend on thread scheduling (which experiment of an
/// equivalence class runs first is a race), so they are diagnostics only and
/// are deliberately excluded from result comparisons and store records.
struct PruneStats {
  std::size_t goldenHits = 0;  ///< short-circuited via golden-hash match
  std::size_t cacheHits = 0;   ///< short-circuited via outcome-cache match
  std::size_t misses = 0;      ///< compared at a boundary, ran to completion
  [[nodiscard]] std::size_t shortCircuited() const noexcept {
    return goldenHits + cacheHits;
  }
  PruneStats& operator+=(const PruneStats& o) noexcept {
    goldenHits += o.goldenHits;
    cacheHits += o.cacheHits;
    misses += o.misses;
    return *this;
  }
};

struct CampaignResult {
  CampaignConfig config;
  stats::OutcomeCounts counts;
  ActivationHistogram activationHist{};
  PruneStats prune;  ///< zeros unless the workload prunes (PrunePolicy)
  /// Experiments tallied into `counts` — executed this run plus resumed
  /// from the store. Less than config.experiments after a capped run.
  std::size_t completedExperiments = 0;
  /// Of `completedExperiments`, how many were merged from a store record
  /// instead of executed.
  std::size_t resumedExperiments = 0;

  /// True when every experiment of the campaign is tallied (a partial,
  /// shard-capped checkpoint run returns false).
  [[nodiscard]] bool complete() const noexcept {
    return completedExperiments == config.experiments;
  }

  [[nodiscard]] stats::Proportion sdc() const {
    return counts.proportion(stats::Outcome::SDC);
  }
};

}  // namespace onebit::fi
