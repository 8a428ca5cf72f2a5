#include "analytics/dataset.hpp"

namespace onebit::analytics {

Dataset::Dataset() = default;
Dataset::~Dataset() = default;

std::size_t Dataset::addStore(const std::string& path) {
  // Buffered mode on purpose: a Dataset never appends, so no writer stream
  // is opened and no ".lock" sibling is created — reading a store a live
  // fleet is appending to cannot block or interfere with the workers.
  auto store = std::make_unique<fi::CampaignStore>(
      path, fi::CampaignStore::WriteMode::Buffered);
  sources_.push_back(Source{path, store->load()});
  feeds_.push_back(Feed{std::move(store), {}});
  remerge();
  return sources_.size() - 1;
}

std::size_t Dataset::addSnapshot(fi::CampaignStore::Snapshot snap,
                                 std::string label) {
  fi::CampaignStore::LoadStats stats;
  for (const auto& [key, campaign] : snap.campaigns) {
    stats.shardRecords += campaign.shards.size();
    stats.cellRecords += campaign.cell.has_value() ? 1 : 0;
    stats.leaseRecords += campaign.leases.size();
    stats.quarantineRecords += campaign.quarantines.size();
  }
  stats.workloadRecords = snap.workloads.size();
  for (const auto& [key, entries] : snap.outcomes) {
    stats.outcomeRecords += entries.size();
  }
  sources_.push_back(Source{std::move(label), stats});
  feeds_.push_back(Feed{nullptr, std::move(snap)});
  remerge();
  return sources_.size() - 1;
}

void Dataset::poll() {
  bool changed = false;
  for (std::size_t i = 0; i < feeds_.size(); ++i) {
    if (feeds_[i].store == nullptr) continue;
    const fi::CampaignStore::LoadStats delta = feeds_[i].store->refresh();
    sources_[i].stats += delta;
    changed = changed || delta.lines() != 0;
  }
  if (changed) remerge();
}

void Dataset::remerge() {
  // Source order is precedence order, so a change in any source folds
  // every later one again.
  const auto snapshotOf = [](const Feed& feed) {
    return feed.store != nullptr ? feed.store->snapshot() : feed.snapshot;
  };
  if (&merged() != &merged_) return;  // a lone snapshot source
  merged_ = snapshotOf(feeds_.front());
  for (std::size_t i = 1; i < feeds_.size(); ++i) {
    merged_.merge(snapshotOf(feeds_[i]));
  }
}

std::size_t Dataset::recordLines() const {
  std::size_t total = 0;
  for (const Source& src : sources_) total += src.stats.lines();
  return total;
}

std::vector<const CampaignTable*> Dataset::match(
    std::string_view workload, std::string_view specLabel, std::uint64_t seed,
    std::size_t experiments) const {
  std::vector<const CampaignTable*> out;
  for (const auto& [key, table] : campaigns()) {
    if (table.expectedExperiments() != experiments) continue;
    if (table.workload() != workload) continue;
    if (table.specLabel() != specLabel) continue;
    if (table.seed() != seed) continue;
    out.push_back(&table);
  }
  return out;
}

}  // namespace onebit::analytics
