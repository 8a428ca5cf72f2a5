#include "fi/shard_executor.hpp"

#include <algorithm>
#include <utility>

#include "fi/fault_plan.hpp"

namespace onebit::fi {

void ShardTally::add(const ExperimentResult& r) noexcept {
  counts.add(r.outcome);
  const unsigned bucket = std::min(r.activations, kMaxActivationBucket);
  ++hist[static_cast<std::size_t>(r.outcome)][bucket];
  switch (r.prune) {
    case PruneEvent::None: break;
    case PruneEvent::GoldenHash: ++prune.goldenHits; break;
    case PruneEvent::CachedOutcome: ++prune.cacheHits; break;
    case PruneEvent::Miss: ++prune.misses; break;
  }
}

ShardExecutor::ShardExecutor(SuiteCell cell, std::size_t shardSize,
                             const CampaignStore* resume,
                             CampaignStore* record)
    : cell_(std::move(cell)), geometry_{cell_.experiments, shardSize} {
  if (cell_.experiments == 0) return;
  const Workload& workload = *cell_.workload;
  candidates_ = workload.candidates(cell_.model.domain);
  meta_.key = CampaignStore::campaignKey(cell_.model, cell_.experiments,
                                         cell_.seed,
                                         workload.fingerprintFor(cell_.model));
  meta_.workload = cell_.storeName;
  meta_.specLabel = cell_.model.label();
  meta_.seed = cell_.seed;
  meta_.experiments = cell_.experiments;
  meta_.candidates = candidates_;
  if (workload.pruningEnabled()) {
    cache_ = std::make_unique<OutcomeCache>();
    const std::uint64_t cacheKey = CampaignStore::outcomeCacheKey(meta_.key);
    if (resume != nullptr) cache_->warmFrom(*resume, cacheKey);
    if (record != nullptr) cache_->bindStore(record, cacheKey);
  }
}

ShardTally ShardExecutor::run(
    std::size_t shard, const std::function<void()>& afterExperiment) const {
  ShardTally tally;
  const std::size_t first = geometry_.first(shard);
  const std::size_t last = first + geometry_.count(shard);
  for (std::size_t i = first; i < last; ++i) {
    const FaultPlan plan =
        FaultPlan::forExperiment(cell_.model, candidates_, cell_.seed, i);
    tally.add(runExperiment(*cell_.workload, plan, cache_.get()));
    if (afterExperiment) afterExperiment();
  }
  return tally;
}

bool ShardExecutor::record(CampaignStore& store, std::size_t shard,
                           const ShardTally& tally) const {
  return store.appendShard(meta_, shard, geometry_.first(shard),
                           geometry_.count(shard),
                           {tally.counts, tally.hist});
}

std::vector<std::size_t> lptOrder(const std::vector<PendingWork>& cells) {
  std::vector<std::size_t> order;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    if (cells[c].experiments != 0) order.push_back(c);
  }
  auto cost = [&](std::size_t c) {
    return cells[c].goldenInstrs *
           static_cast<std::uint64_t>(cells[c].experiments);
  };
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return cost(a) > cost(b);
                   });
  return order;
}

}  // namespace onebit::fi
