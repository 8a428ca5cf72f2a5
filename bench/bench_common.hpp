// Shared helpers for the paper-artifact bench harnesses.
//
// Every binary prints the rows/series of one table or figure from the paper.
// Scale knobs (all optional):
//   ONEBIT_EXPERIMENTS  experiments per campaign (default varies per bench)
//   ONEBIT_SEED         master seed (default 2017, the paper's year)
//   ONEBIT_PROGRAMS     comma-separated subset of Table II program names
//   ONEBIT_SPECS        semicolon-separated subset of fault-spec labels,
//                       e.g. "read/single;write/m=3,w=1" (semicolons
//                       because multi-bit labels contain commas); matches
//                       whole FaultModel::label() strings
//   ONEBIT_CSV          1 = emit tables as CSV (for plotting scripts)
//   ONEBIT_FLIP_WIDTH   integer-register width of the flip model
//                       (default 32 = paper-faithful; 64 = raw VM width)
//   ONEBIT_THREADS      worker threads shared by the whole sweep
//                       (default: all cores)
//   ONEBIT_SHARD_SIZE   experiments per shard (default: auto)
//   ONEBIT_PROGRESS     1 = per-campaign suite progress lines on stderr,
//                       2 = per-shard lines as well
//
// Golden-prefix fast-forward knobs (see docs/ARCHITECTURE.md):
//   ONEBIT_SNAPSHOT_INTERVAL  combined candidate indices between golden-run
//                       snapshot captures; 0 = disable the snapshot cache
//                       (every experiment interprets from scratch),
//                       unset/negative = auto
//   ONEBIT_SNAPSHOT_BUDGET    per-workload byte budget for kept snapshots
//                       (default 16 MiB); 0 = disable the cache
//
// Outcome-equivalence pruning knobs (see docs/ARCHITECTURE.md):
//   ONEBIT_PRUNE        1 = short-circuit experiments whose post-injection
//                       state hash matches the golden run or an earlier
//                       experiment (default 0). Pure speedup: all outputs
//                       are bit-identical with it on or off.
//   ONEBIT_PRUNE_GRID   state-hash boundary spacing in dynamic instructions
//                       (unset/0 = auto, ~128 boundaries per golden run)
//
// Dispatch-backend knob (see docs/ARCHITECTURE.md):
//   ONEBIT_DISPATCH     "threaded" (default) runs hook-free segments on the
//                       pre-decoded direct-threaded loop; "switch" selects
//                       the reference interpreter everywhere. Pure speedup:
//                       all outputs are bit-identical either way.
//
// Results-store knobs (checkpoint/resume; see docs/ARCHITECTURE.md):
//   ONEBIT_STORE        path of a JSONL campaign store; every completed
//                       shard is appended (and flushed) there
//   ONEBIT_RESUME       1 = skip shards already recorded in ONEBIT_STORE
//                       and merge their stored aggregates instead
//   ONEBIT_MAX_SHARDS   stop each campaign after this many fresh shards
//                       (checkpoint cap; partial results, for testing
//                       interruption without killing the process)
//
// Campaign-fleet knobs (multi-process execution; see fi/fleet.hpp,
// fi/supervisor.hpp and the "Campaign fleet" and "Self-healing fleet"
// sections of docs/ARCHITECTURE.md):
//   ONEBIT_FLEET_WORKERS      fork this many fleet worker processes and run
//                       the sweep through the lease broker instead of the
//                       in-process thread pool (0/unset = off). The
//                       supervisor respawns crashed workers with capped
//                       exponential backoff, quarantines shards that
//                       repeatedly kill their workers, and the final
//                       in-process remainder pass finishes everything, so
//                       output is bit-identical to the in-process run. A
//                       `[fleet]` line on stderr reports spawns, restarts,
//                       crashes and quarantines. Uses ONEBIT_STORE when set
//                       (the store doubles as the fleet's work queue and
//                       makes the run resumable); otherwise a temporary
//                       store is created and removed. ONEBIT_MAX_SHARDS
//                       also caps each worker incarnation, which is then
//                       respawned.
//   ONEBIT_FLEET_LEASE_MS     shard lease duration (default 30000)
//   ONEBIT_FLEET_HEARTBEAT_MS lease heartbeat period (default lease/3)
//   ONEBIT_FLEET_KILL_AFTER   crash injection: the first worker's first
//                       incarnation SIGKILLs itself right after its Nth
//                       lease claim; it is respawned once and its shards
//                       are re-leased (tests fault tolerance without
//                       changing any output; 0/unset = off)
//   ONEBIT_POISON_RETRIES     mid-lease worker deaths on one shard range
//                       before the supervisor quarantines it (default 3)
//   ONEBIT_LEASE_QUANTILE     adaptive lease deadlines: quantile of
//                       observed per-shard cost the deadline tracks
//                       (default 0.9; 0 = fixed deadlines)
//   ONEBIT_FLEET_POISON       test hook "NAME[:SHARD]": a worker SIGKILLs
//                       itself right after claiming that shard (any shard
//                       of NAME when :SHARD is omitted) — the fleet
//                       quarantines it and still converges
//   ONEBIT_FLEET_CHAOS_KILL_MS  chaos hook: the supervisor SIGKILLs one
//                       random live worker roughly this often (never
//                       counted toward poison detection; 0/unset = off)
//
// Drivers that sweep several campaigns should not loop over campaign();
// they should declare every (workload × spec) cell on a SweepBuilder and
// run() it once: the whole sweep executes as ONE fi::CampaignSuite, shards
// from all campaigns interleaved on a single thread pool, with results
// bit-identical to the one-at-a-time loop (see fi/suite.hpp).
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "analytics/figures.hpp"
#include "analytics/knobs.hpp"
#include "fi/campaign.hpp"
#include "fi/campaign_store.hpp"
#include "fi/fleet.hpp"
#include "fi/suite.hpp"
#include "fi/supervisor.hpp"
#include "progs/registry.hpp"
#include "util/env.hpp"
#include "util/file_lock.hpp"
#include "util/table.hpp"

namespace onebit::bench {

struct NamedWorkload {
  std::string name;
  fi::Workload workload;
};

// The selection knobs (seed, scale, program/spec filters, flip width) live
// in analytics/knobs.hpp so the drivers and the figure-regenerating
// `report` tool resolve the same campaign cells from the same environment —
// re-exported here under the historical names every driver already uses.
using analytics::masterSeed;
using analytics::experimentsPerCampaign;
using analytics::programSelected;
using analytics::specSelected;

/// The golden-prefix snapshot policy selected by the environment knobs.
/// ONEBIT_SNAPSHOT_INTERVAL: 0 disables the cache, a positive value pins the
/// capture spacing, unset/negative picks the auto spacing.
/// ONEBIT_SNAPSHOT_BUDGET: per-workload byte budget (0 disables).
inline fi::SnapshotPolicy snapshotPolicyFromEnv() {
  fi::SnapshotPolicy policy;
  const std::int64_t interval = util::envInt("ONEBIT_SNAPSHOT_INTERVAL", -1);
  if (interval >= 0) policy.interval = static_cast<std::uint64_t>(interval);
  policy.budgetBytes = util::envSize("ONEBIT_SNAPSHOT_BUDGET",
                                     policy.budgetBytes);
  return policy;
}

/// The outcome-equivalence pruning policy selected by ONEBIT_PRUNE /
/// ONEBIT_PRUNE_GRID (default off).
inline fi::PrunePolicy prunePolicyFromEnv() {
  fi::PrunePolicy policy;
  policy.enabled = util::envInt("ONEBIT_PRUNE", 0) != 0;
  policy.grid = util::envSize("ONEBIT_PRUNE_GRID");
  return policy;
}

/// The execution backend selected by ONEBIT_DISPATCH ("threaded" | "switch").
/// Drivers default to the direct-threaded fast path — it is held
/// bit-identical to the reference interpreter by the differential backend
/// fuzzer, the equivalence sweep suite, and the CI smoke diff — and
/// ONEBIT_DISPATCH=switch selects the reference loop everywhere (the
/// comparison baseline scripts/bench_dispatch.sh measures against).
inline vm::DispatchBackend dispatchFromEnv() {
  const std::string v = util::envStr("ONEBIT_DISPATCH", "threaded");
  if (v == "switch") return vm::DispatchBackend::Switch;
  if (v != "threaded") {
    std::fprintf(stderr,
                 "[dispatch] unknown ONEBIT_DISPATCH=%s; using threaded\n",
                 v.c_str());
  }
  return vm::DispatchBackend::Threaded;
}

/// Compile and profile all (selected) Table II workloads.
inline std::vector<NamedWorkload> loadWorkloads() {
  const fi::SnapshotPolicy snapshots = snapshotPolicyFromEnv();
  const fi::PrunePolicy prune = prunePolicyFromEnv();
  const vm::DispatchBackend dispatch = dispatchFromEnv();
  std::vector<NamedWorkload> out;
  for (const auto& info : progs::allPrograms()) {
    if (!programSelected(info.name)) continue;
    out.push_back({info.name,
                   fi::Workload(progs::compileProgram(info),
                                fi::Workload::kDefaultHangFactor, snapshots,
                                prune, dispatch)});
  }
  return out;
}

/// Integer flip width used by the paper-artifact harnesses. Defaults to 32
/// (the paper's LLVM i32 registers); ONEBIT_FLIP_WIDTH=64 selects the raw
/// VM register width instead.
using analytics::flipWidth;

/// The process-wide campaign store named by ONEBIT_STORE, loaded once on
/// first use; nullptr when the knob is unset.
inline fi::CampaignStore* sharedStore() {
  static const std::unique_ptr<fi::CampaignStore> store = [] {
    const std::string path = util::envStr("ONEBIT_STORE", "");
    if (path.empty()) return std::unique_ptr<fi::CampaignStore>();
    auto s = std::make_unique<fi::CampaignStore>(path);
    const fi::CampaignStore::LoadStats stats = s->load();
    std::fprintf(stderr,
                 "[store] %s: %zu shard record(s), %zu workload record(s)",
                 path.c_str(), stats.shardRecords, stats.workloadRecords);
    if (stats.malformed != 0) {
      std::fprintf(stderr, ", %zu malformed line(s) skipped",
                   stats.malformed);
    }
    std::fputc('\n', stderr);
    return s;
  }();
  return store.get();
}

inline bool resumeEnabled() {
  const bool enabled = util::envInt("ONEBIT_RESUME", 0) != 0;
  if (enabled && sharedStore() == nullptr) {
    static const bool warned = [] {
      std::fprintf(stderr,
                   "warning: ONEBIT_RESUME is set but ONEBIT_STORE is not; "
                   "nothing to resume from\n");
      return true;
    }();
    (void)warned;
    return false;
  }
  return enabled;
}

/// The store binding bench campaigns run under: records to ONEBIT_STORE when
/// set, resumes when ONEBIT_RESUME=1. Inert when no store is configured.
inline fi::StoreBinding storeBinding(std::string workloadName) {
  fi::StoreBinding binding;
  binding.store = sharedStore();
  binding.resume = resumeEnabled();
  binding.workload = std::move(workloadName);
  return binding;
}

/// Worker processes requested by ONEBIT_FLEET_WORKERS (0 = run in-process).
inline std::size_t fleetWorkers() {
  return util::envSize("ONEBIT_FLEET_WORKERS");
}

/// Shared FleetConfig resolution for both fleet paths: lease, heartbeat,
/// adaptive-deadline quantile (ONEBIT_LEASE_QUANTILE; 0 disables
/// adaptation), and the ONEBIT_FLEET_POISON "NAME[:SHARD]" test hook.
inline void applyFleetEnv(fi::FleetConfig& config) {
  config.leaseMs = static_cast<std::uint64_t>(
      util::envSize("ONEBIT_FLEET_LEASE_MS", config.leaseMs));
  config.heartbeatMs = static_cast<std::uint64_t>(
      util::envSize("ONEBIT_FLEET_HEARTBEAT_MS", config.heartbeatMs));
  config.pruning = prunePolicyFromEnv().enabled;
  const std::string quantile = util::envStr("ONEBIT_LEASE_QUANTILE", "");
  if (!quantile.empty()) {
    char* end = nullptr;
    const double q = std::strtod(quantile.c_str(), &end);
    if (end != quantile.c_str() && *end == '\0') {
      if (q > 0.0 && q <= 1.0) {
        config.leaseQuantile = q;
      } else {
        config.adaptiveLease = false;
      }
    }
  }
  const std::string poison = util::envStr("ONEBIT_FLEET_POISON", "");
  if (!poison.empty()) {
    const std::size_t colon = poison.rfind(':');
    config.poisonWorkload = poison;
    if (colon != std::string::npos && colon != 0 &&
        colon + 1 < poison.size()) {
      char* end = nullptr;
      const unsigned long long s =
          std::strtoull(poison.c_str() + colon + 1, &end, 10);
      if (*end == '\0') {
        config.poisonWorkload = poison.substr(0, colon);
        config.poisonShard = static_cast<std::size_t>(s);
      }
    }
  }
}

/// The local-fleet options selected by the env knobs.
inline fi::LocalFleetOptions fleetOptionsFromEnv() {
  fi::LocalFleetOptions opts;
  opts.workers = fleetWorkers();
  applyFleetEnv(opts.config);
  opts.poisonRetries = util::envSize("ONEBIT_POISON_RETRIES",
                                     opts.poisonRetries);
  opts.maxShardsPerWorker = util::envSize("ONEBIT_MAX_SHARDS");
  opts.chaosKillMs = static_cast<std::uint64_t>(
      util::envSize("ONEBIT_FLEET_CHAOS_KILL_MS"));
  opts.killFirstWorkerAfterClaims = util::envSize("ONEBIT_FLEET_KILL_AFTER");
  return opts;
}

/// The suite configuration every bench sweep runs under, resolved from the
/// environment knobs once per builder.
inline fi::SuiteConfig suiteConfigFromEnv() {
  fi::SuiteConfig cfg;
  cfg.threads = util::envSize("ONEBIT_THREADS");
  cfg.shardSize = util::envSize("ONEBIT_SHARD_SIZE");
  cfg.maxShards = util::envSize("ONEBIT_MAX_SHARDS");
  cfg.pruning = prunePolicyFromEnv().enabled;
  cfg.withStore(storeBinding({}));
  return cfg;
}

/// Declarative bench sweep: queue (workload × spec) campaign cells with
/// add(), then run() once — the whole sweep executes as ONE
/// fi::CampaignSuite honoring every env knob campaign() honors. Results come
/// back in add() order; each cell is bit-identical to what a solo
/// bench::campaign() call with the same arguments returns.
class SweepBuilder {
 public:
  SweepBuilder() : suite_(suiteConfigFromEnv()) {
    const std::int64_t level = util::envInt("ONEBIT_PROGRESS", 0);
    if (level >= 1) {
      suite_.onProgress([](const fi::SuiteProgress& p) {
        std::fprintf(stderr,
                     "  [%s] %s %zu/%zu experiments (suite %zu/%zu, "
                     "%zu/%zu campaigns done)\n",
                     p.cellLabel.c_str(), p.resumed ? "resumed" : "at",
                     p.cellCompletedExperiments, p.cellTotalExperiments,
                     p.suiteCompletedExperiments, p.suiteTotalExperiments,
                     p.completedCells, p.cellCount);
      });
    }
    if (level >= 2) {
      suite_.onShardDone([](const fi::ShardProgress& p) {
        std::fprintf(stderr, "    shard %zu/%zu %s (%zu/%zu experiments)\n",
                     p.completedShards, p.shardCount,
                     p.resumed ? "resumed" : "done", p.completedExperiments,
                     p.totalExperiments);
      });
    }
  }

  /// Queue one campaign cell. The master seed and flip width are applied
  /// here, exactly as campaign() applies them. Returns the cell's index
  /// into the run() result vector.
  std::size_t add(const std::string& workloadName, const fi::Workload& w,
                  fi::FaultModel spec, std::size_t n, std::uint64_t seedSalt) {
    spec.flipWidth = flipWidth();
    std::string label = spec.label();
    if (!workloadName.empty()) label = workloadName + " " + label;
    return suite_.addCell(std::move(label), w, spec, n,
                          util::hashCombine(masterSeed(), seedSalt),
                          workloadName);
  }

  /// Queue a pre-built campaign config, taking spec (flip width included),
  /// experiment count, and seed verbatim — for pruning-layer plans
  /// (pruning::gridCampaigns, pruning::activationCampaigns, ...) that derive
  /// their own per-campaign seeds.
  std::size_t addConfig(const std::string& workloadName, const fi::Workload& w,
                        const fi::CampaignConfig& config) {
    std::string label = config.model.label();
    if (!workloadName.empty()) label = workloadName + " " + label;
    return suite_.addCell(std::move(label), w, config.model,
                          config.experiments, config.seed, workloadName);
  }

  [[nodiscard]] std::size_t cellCount() const noexcept {
    return suite_.cellCount();
  }

  /// Run every queued cell as one suite. Idempotent: the first call
  /// executes, later calls return the cached results.
  const std::vector<fi::CampaignResult>& run() {
    if (!ran_) {
      results_ = fleetWorkers() != 0 ? runAsFleet() : suite_.run();
      ran_ = true;
      std::size_t incomplete = 0;
      for (const fi::CampaignResult& r : results_) {
        if (!r.complete()) ++incomplete;
      }
      if (incomplete != 0) {
        std::fprintf(stderr,
                     "warning: %zu/%zu campaigns incomplete "
                     "(ONEBIT_MAX_SHARDS checkpoint cap?) — %s\n",
                     incomplete, results_.size(),
                     sharedStore() != nullptr
                         ? "resume with ONEBIT_RESUME=1 to finish"
                         : "nothing was recorded; set ONEBIT_STORE to make "
                           "partial runs resumable");
      }
      // Machine-greppable pruning summary (scripts/bench_prune.sh parses
      // this line). Stderr, not stdout: hit counters depend on thread
      // scheduling, and bench stdout must stay byte-identical under
      // ONEBIT_PRUNE.
      if (prunePolicyFromEnv().enabled) {
        fi::PruneStats total;
        for (const fi::CampaignResult& r : results_) total += r.prune;
        std::fprintf(stderr,
                     "[prune] golden_hits=%zu cache_hits=%zu misses=%zu "
                     "short_circuited=%zu\n",
                     total.goldenHits, total.cacheHits, total.misses,
                     total.shortCircuited());
      }
    }
    return results_;
  }

  /// The result of the cell add() returned this index for. run() first.
  const fi::CampaignResult& operator[](std::size_t idx) {
    return run()[idx];
  }

 private:
  /// ONEBIT_FLEET_WORKERS path: run the queued cells as a forked local
  /// fleet over ONEBIT_STORE (or a temporary store, removed afterwards).
  /// Bit-identical to suite_.run() by the fleet's determinism contract.
  std::vector<fi::CampaignResult> runAsFleet() {
    std::string storePath = util::envStr("ONEBIT_STORE", "");
    const bool temporary = storePath.empty();
    if (temporary) {
      storePath = util::envStr("TMPDIR", "/tmp") + "/onebit_fleet_" +
                  std::to_string(util::currentPid()) + ".jsonl";
    }
    fi::FleetSupervisor::Report report;
    std::vector<fi::CampaignResult> results =
        fi::runFleet(suite_, suiteConfigFromEnv(), storePath,
                     fleetOptionsFromEnv(), &report);
    std::fprintf(stderr,
                 "[fleet] %zu spawned, %zu restarts, %zu crashes (%zu chaos), "
                 "%zu quarantined shard(s)%s\n",
                 report.spawned, report.restarts, report.crashes,
                 report.chaosKills, report.quarantined.size(),
                 report.converged ? "" : " — did not converge");
    if (temporary) {
      std::remove(storePath.c_str());
      std::remove((storePath + ".lock").c_str());
    }
    return results;
  }

  fi::CampaignSuite suite_;
  std::vector<fi::CampaignResult> results_;
  bool ran_ = false;
};

/// Run one campaign under the env knobs — a single-cell SweepBuilder. Kept
/// for drivers and examples that genuinely have one campaign; anything
/// iterating workloads or specs should batch cells on a SweepBuilder.
inline fi::CampaignResult campaign(const fi::Workload& w,
                                   const fi::FaultModel& spec, std::size_t n,
                                   std::uint64_t seedSalt,
                                   std::string workloadName = {}) {
  SweepBuilder sweep;
  const std::size_t idx = sweep.add(workloadName, w, spec, n, seedSalt);
  return sweep[idx];
}

/// Run paper figure `id` (analytics::figureIds()) and print it. The
/// renderer in analytics/figures.cpp is the figure's one definition, and
/// also its execution plan: each pass renders against the results collected
/// so far, queues every cell the render asked for and lacked on one
/// SweepBuilder (verbatim model, seed, and experiments, in request order),
/// and runs that sweep; the first render that asks for nothing new is
/// printed. Fig. 4 takes two sweeps: the whole grid, then the re-validation
/// of each grid's argmax. Under ONEBIT_MAX_SHARDS the printed text is what
/// `report --figure` renders for the store: partial cells are marked, and
/// cells that depend on them are never run.
inline int runFigure(std::string_view id) {
  const std::vector<NamedWorkload> workloads = loadWorkloads();
  std::map<std::string, const fi::Workload*> byName;
  for (const auto& [name, w] : workloads) byName[name] = &w;

  // A cell's identity: (workload, spec label, flip width, seed,
  // experiments).
  using CellKey = std::tuple<std::string, std::string, unsigned,
                             std::uint64_t, std::size_t>;
  const auto keyOf = [](const std::string& workload,
                        const fi::CampaignConfig& c) {
    return CellKey{workload, c.model.label(), c.model.flipWidth, c.seed,
                   c.experiments};
  };
  std::map<CellKey, analytics::CellResolution> results;
  for (;;) {
    std::vector<std::pair<std::string, fi::CampaignConfig>> lacking;
    const std::optional<analytics::FigureOutput> fig = analytics::renderFigure(
        id, [&](const std::string& workload, const fi::FaultModel& model,
                std::uint64_t seed, std::size_t experiments) {
          fi::CampaignConfig config;
          config.model = model;
          config.seed = seed;
          config.experiments = experiments;
          analytics::CellResolution missing;
          missing.expected = experiments;
          const auto [it, fresh] =
              results.try_emplace(keyOf(workload, config), missing);
          if (fresh) lacking.emplace_back(workload, config);
          return it->second;
        });
    if (!fig) {
      std::fprintf(stderr, "unknown figure '%.*s'\n",
                   static_cast<int>(id.size()), id.data());
      return 1;
    }
    if (lacking.empty()) {
      std::fputs(fig->text.c_str(), stdout);
      return 0;
    }
    SweepBuilder sweep;
    for (const auto& [workload, config] : lacking) {
      sweep.addConfig(workload, *byName.at(workload), config);
    }
    const std::vector<fi::CampaignResult>& ran = sweep.run();
    for (std::size_t i = 0; i < lacking.size(); ++i) {
      const fi::CampaignResult& r = ran[i];
      analytics::CellResolution& cell =
          results[keyOf(lacking[i].first, lacking[i].second)];
      cell.state = r.complete() ? analytics::CellResolution::State::Complete
                                : analytics::CellResolution::State::Partial;
      cell.counts = r.counts;
      cell.hist = r.activationHist;
      cell.recorded = r.completedExperiments;
      cell.expected = r.config.experiments;
    }
  }
}

/// Print a table as aligned text, or CSV when ONEBIT_CSV=1 (for plotting).
inline void emitTable(const util::TextTable& table) {
  if (analytics::csvEnabled()) {
    std::fputs(table.renderCsv().c_str(), stdout);
  } else {
    std::fputs(table.render().c_str(), stdout);
  }
}

inline void printHeaderNote(const char* artifact, std::size_t n) {
  std::printf("== %s ==\n", artifact);
  std::printf("(%zu experiments per campaign; scale with ONEBIT_EXPERIMENTS; "
              "error bars are 95%% CIs)\n\n",
              n);
}

}  // namespace onebit::bench
