#include "fi/outcome_cache.hpp"

namespace onebit::fi {

void OutcomeCache::bindStore(CampaignStore* store, std::uint64_t cacheKey) {
  std::lock_guard lock(mutex_);
  record_ = store;
  cacheKey_ = cacheKey;
}

std::size_t OutcomeCache::warmFrom(const CampaignStore& store,
                                   std::uint64_t cacheKey) {
  std::size_t loaded = 0;
  const std::vector<CampaignStore::OutcomeRecord> records =
      store.outcomes(cacheKey);
  std::lock_guard lock(mutex_);
  for (const CampaignStore::OutcomeRecord& rec : records) {
    if (entries_
            .emplace(std::make_pair(rec.boundary, rec.hash),
                     Entry{rec.outcome, rec.trap, rec.instructions})
            .second) {
      ++loaded;
    }
  }
  return loaded;
}

std::optional<OutcomeCache::Entry> OutcomeCache::find(
    std::uint64_t boundary, std::uint64_t hash) const {
  std::lock_guard lock(mutex_);
  const auto it = entries_.find({boundary, hash});
  if (it == entries_.end()) return std::nullopt;
  return it->second;
}

void OutcomeCache::insert(std::uint64_t boundary, std::uint64_t hash,
                          const Entry& entry) {
  CampaignStore* record = nullptr;
  std::uint64_t cacheKey = 0;
  {
    std::lock_guard lock(mutex_);
    if (!entries_.emplace(std::make_pair(boundary, hash), entry).second) {
      return;  // a concurrent miss on the same state got here first
    }
    record = record_;
    cacheKey = cacheKey_;
  }
  // Append outside the cache lock: the store serializes internally, and a
  // slow disk must not stall concurrent lookups.
  if (record != nullptr) {
    CampaignStore::OutcomeRecord rec;
    rec.boundary = boundary;
    rec.hash = hash;
    rec.outcome = entry.outcome;
    rec.trap = entry.trap;
    rec.instructions = entry.instructions;
    record->appendOutcome(cacheKey, rec);
  }
}

std::size_t OutcomeCache::size() const {
  std::lock_guard lock(mutex_);
  return entries_.size();
}

}  // namespace onebit::fi
