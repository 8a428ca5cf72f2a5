// Analytics Dataset: the read path over one or many campaign stores.
//
// A Dataset loads JSONL store files (or in-process CampaignStore::Snapshot
// copies) into one merged index keyed by campaign key. It is strictly a
// READER:
//
//   * It never appends, so opening a store another fleet of processes is
//     actively writing is safe — no writer stream is created, no ".lock"
//     sibling is touched, and workers are never blocked.
//   * It tolerates torn tails exactly like CampaignStore::load (the tail a
//     crashed or mid-append writer left is counted malformed / retried, not
//     fatal), because it IS CampaignStore::load underneath: each file
//     source owns a private read-only CampaignStore instance, and the
//     merged index is built from CampaignStore::snapshot() copies, so no
//     store mutex is held while they are processed.
//   * poll() re-reads only the bytes other processes appended since the
//     last load (CampaignStore::refresh), so a live dashboard polling a
//     large fleet store pays for the new records, not the whole file.
//
// Sources are merged by the store's own precedence rule
// (CampaignStore::Snapshot::merge), in source order: a Dataset over stores
// A then B reads exactly like the one file A+B, and after poll() exactly
// like a fresh Dataset over the same files.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "fi/campaign_store.hpp"

namespace onebit::analytics {

using Range = fi::CampaignStore::Range;  ///< (first experiment, count)

/// Everything known about one campaign key, merged across every source.
using CampaignTable = fi::CampaignStore::Snapshot::Campaign;

class Dataset {
 public:
  /// One ingested source and its cumulative read statistics.
  struct Source {
    std::string path;  ///< file path, or the label of an in-memory snapshot
    fi::CampaignStore::LoadStats stats;  ///< summed over load() + poll()s
  };

  Dataset();
  ~Dataset();
  Dataset(const Dataset&) = delete;
  Dataset& operator=(const Dataset&) = delete;

  /// Open the store file at `path` read-only and ingest everything on disk.
  /// A missing file ingests as empty (stats.lines() == 0). Returns the
  /// source index.
  std::size_t addStore(const std::string& path);

  /// Ingest a snapshot of an in-process store (no file ownership; poll()
  /// will not advance it).
  std::size_t addSnapshot(fi::CampaignStore::Snapshot snap,
                          std::string label = "<snapshot>");

  /// Incrementally re-read every file source (CampaignStore::refresh: only
  /// the newly appended bytes; a shrunken/compacted file triggers a safe
  /// full re-read) and re-merge the sources.
  void poll();

  /// Merged campaign tables by key (unordered).
  [[nodiscard]] const std::unordered_map<std::uint64_t, CampaignTable>&
  campaigns() const noexcept {
    return merged().campaigns;
  }

  /// Merged workload profiles.
  [[nodiscard]] const std::map<std::string, fi::CampaignStore::WorkloadRecord,
                               std::less<>>&
  workloads() const noexcept {
    return merged().workloads;
  }

  [[nodiscard]] const std::vector<Source>& sources() const noexcept {
    return sources_;
  }

  /// Total non-empty record lines consumed across all sources.
  [[nodiscard]] std::size_t recordLines() const;

  /// Campaigns whose shard-record meta matches (workload, spec label, seed,
  /// experiments) — the analytics matching handle; the campaign key itself
  /// is not recomputable without compiling the workload. More than one
  /// match is possible (e.g. the same cell run under two flip widths, which
  /// the spec label does not carry): callers must disambiguate or report
  /// the cell ambiguous, never merge.
  [[nodiscard]] std::vector<const CampaignTable*> match(
      std::string_view workload, std::string_view specLabel,
      std::uint64_t seed, std::size_t experiments) const;

 private:
  /// What a source reads from: a private store for a file source, the
  /// given copy for a snapshot source.
  struct Feed {
    std::unique_ptr<fi::CampaignStore> store;
    fi::CampaignStore::Snapshot snapshot;
  };

  void remerge();
  /// The merged index. A lone snapshot source is read in place rather than
  /// copied, so a Dataset over one in-process snapshot holds one index.
  [[nodiscard]] const fi::CampaignStore::Snapshot& merged() const noexcept {
    return feeds_.size() == 1 && feeds_.front().store == nullptr
               ? feeds_.front().snapshot
               : merged_;
  }

  std::vector<Source> sources_;
  std::vector<Feed> feeds_;  ///< one per source
  fi::CampaignStore::Snapshot merged_;  ///< unused for a lone snapshot
};

}  // namespace onebit::analytics
