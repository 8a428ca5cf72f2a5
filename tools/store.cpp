// Campaign-store maintenance CLI: the one tool that rewrites a store
// (`report` is the read-only side).
//
//   store compact STORE.jsonl           drop duplicate, superseded and torn
//                                       records; see CampaignStore::compact
//   store fsck STORE.jsonl              classify every line (valid,
//                                       byte-identical duplicate, torn tail,
//                                       mid-file garbage, integrity failure,
//                                       conflict, unknown kind)
//   store fsck STORE.jsonl --repair     also rewrite the store when needed
//
// Both rewrites are crash-safe (tmp file + rename) and keep surviving lines
// byte for byte. Compaction keeps exactly what load() indexes, apart from
// dead leases and moot quarantines. Repair appends unrepairable lines to
// STORE.jsonl.quarantined before the rewrite, never silently dropping them.
// Run neither on a store a live writer is appending to.
//
// Exit codes: 0 = done (fsck: clean, or repairable duplicates only),
// 5 = fsck found corruption (after --repair: it was found and the store was
// rewritten), 1 = I/O error, 2 = usage.
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>

#include "fi/campaign_store.hpp"
#include "util/file_lock.hpp"

namespace {

using onebit::fi::CampaignStore;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s compact STORE.jsonl\n"
               "       %s fsck STORE.jsonl [--repair]\n",
               argv0, argv0);
  return 2;
}

int compact(const std::string& path) {
  const auto stats = CampaignStore::compact(path, onebit::util::wallClockMs());
  if (!stats) {
    std::fprintf(stderr, "error: could not compact '%s' (I/O failure); "
                 "the original file is untouched\n", path.c_str());
    return 1;
  }
  std::printf("%s: %zu shard, %zu workload, %zu cell record(s), %zu live "
              "lease(s) kept; %zu duplicate(s), %zu dead lease(s), "
              "%zu malformed line(s) dropped%s\n",
              path.c_str(), stats->shardRecords, stats->workloadRecords,
              stats->cellRecords, stats->leaseRecords,
              stats->droppedDuplicates, stats->droppedLeases,
              stats->droppedMalformed,
              stats->rewritten ? "" : " (already canonical; file untouched)");
  return 0;
}

int fsck(const std::string& path, bool repair) {
  const std::optional<CampaignStore::FsckStats> stats =
      CampaignStore::fsck(path, repair);
  if (!stats) {
    std::fprintf(stderr, "error: cannot fsck '%s'\n", path.c_str());
    return 1;
  }
  std::printf("%s: %zu valid record(s), %zu duplicate line(s), "
              "%zu torn tail, %zu garbage, %zu integrity failure(s), "
              "%zu conflict(s), %zu unknown-kind (kept)\n",
              path.c_str(), stats->validRecords, stats->duplicateLines,
              stats->tornTail, stats->garbage, stats->integrityFailures,
              stats->conflicts, stats->unknownKinds);
  if (stats->quarantinedLines != 0) {
    std::printf("%zu unrepairable line(s) %s %s.quarantined\n",
                stats->quarantinedLines,
                stats->rewritten ? "moved to" : "would move to",
                path.c_str());
  }
  if (stats->rewritten) {
    std::printf("store rewritten (%zu surviving record(s))\n",
                stats->validRecords);
  } else if (!stats->clean()) {
    std::printf("re-run with --repair to rewrite the store\n");
  }
  if (stats->corrupt()) return 5;
  std::printf("%s\n", stats->clean()      ? "clean"
              : stats->rewritten ? "clean after dedup"
                                 : "duplicate lines only (benign)");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string command = argc > 1 ? argv[1] : "";
  bool repair = false;
  std::string path;
  for (int i = 2; i < argc; ++i) {
    if (command == "fsck" && std::strcmp(argv[i], "--repair") == 0) {
      repair = true;
    } else if (std::strcmp(argv[i], "--help") == 0 || !path.empty()) {
      return usage(argv[0]);
    } else {
      path = argv[i];
    }
  }
  if (path.empty()) return usage(argv[0]);
  if (command == "compact") return compact(path);
  if (command == "fsck") return fsck(path, repair);
  return usage(argv[0]);
}
