#include "fi/fleet.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <map>
#include <thread>
#include <utility>

#include "fi/shard_executor.hpp"
#include "progs/registry.hpp"
#include "util/env.hpp"
#include "util/file_lock.hpp"
#include "util/rng.hpp"

namespace onebit::fi {

namespace {

/// Is this lease still holding its shard? Expired leases are dead; on a
/// single host, so are leases whose recorded pid no longer exists (an early
/// re-lease accelerator — expiry alone is always sufficient).
bool leaseAlive(const CampaignStore::LeaseRecord& lease, std::uint64_t nowMs,
                bool sameHostLiveness) {
  if (lease.deadlineMs <= nowMs) return false;
  if (sameHostLiveness) {
    if (const std::optional<std::uint64_t> pid = workerPid(lease.worker)) {
      if (!util::processAlive(*pid)) return false;
    }
  }
  return true;
}

/// The cost quantile adaptive lease deadlines budget for: tolerates the
/// occasional slow shard without letting one outlier set every deadline.
constexpr double kLeaseQuantile = 0.9;

std::uint64_t clockOf(const FleetConfig& config) {
  return config.clock ? config.clock() : util::wallClockMs();
}

/// Resolve cells through the progs registry, compiling and profiling each
/// (program, hang factor) once per resolver copy — each FleetWorker holds
/// its own copy — instead of once per cell. Threaded dispatch, the drivers'
/// default, is bit-identical to the switch loop
/// (tests/dispatch_differential_test).
WorkloadResolver registryResolver() {
  std::map<std::pair<std::string, std::uint64_t>,
           std::shared_ptr<const Workload>>
      built;
  return [built](const CampaignStore::CellRecord& cell) mutable
         -> std::shared_ptr<const Workload> {
    const progs::ProgramInfo* info = progs::findProgram(cell.workload);
    if (info == nullptr) return nullptr;
    const std::uint64_t hangFactor =
        cell.hangFactor != 0 ? cell.hangFactor : Workload::kDefaultHangFactor;
    std::shared_ptr<const Workload>& workload =
        built[{cell.workload, hangFactor}];
    if (workload == nullptr) {
      workload = std::make_shared<const Workload>(
          progs::compileProgram(*info), hangFactor, SnapshotPolicy{},
          PrunePolicy{}, vm::DispatchBackend::Threaded);
    }
    return workload;
  };
}

}  // namespace

bool parsePoisonHook(std::string_view spec, FleetConfig& config) {
  const std::size_t colon = spec.rfind(':');
  const std::string_view name = spec.substr(0, colon);
  std::uint64_t shard = static_cast<std::uint64_t>(-1);
  if (name.empty()) return false;
  if (colon != std::string_view::npos) {
    // npos itself would read as "any shard", so it is refused as a SHARD.
    if (!util::parseCount(std::string(spec.substr(colon + 1)).c_str(),
                          shard) ||
        shard == static_cast<std::uint64_t>(-1)) {
      return false;
    }
  }
  config.poisonWorkload = name;
  config.poisonShard = static_cast<std::size_t>(shard);
  return true;
}

std::optional<std::uint64_t> workerPid(const std::string& workerId) {
  std::uint64_t pid = 0;
  std::size_t i = 0;
  for (; i < workerId.size() && workerId[i] >= '0' && workerId[i] <= '9';
       ++i) {
    pid = pid * 10 + static_cast<std::uint64_t>(workerId[i] - '0');
  }
  if (i == 0 || i >= workerId.size() || workerId[i] != ':') {
    return std::nullopt;
  }
  return pid;
}

std::uint64_t adaptiveLeaseMs(std::vector<std::uint64_t> costsMs,
                              double quantile, std::uint64_t baseMs) {
  if (costsMs.empty() || !(quantile > 0.0) || quantile > 1.0 || baseMs == 0) {
    return baseMs;
  }
  std::sort(costsMs.begin(), costsMs.end());
  // Nearest-rank quantile: the smallest sample with at least `quantile` of
  // the distribution at or below it.
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(quantile * static_cast<double>(costsMs.size())));
  rank = std::clamp<std::size_t>(rank, 1, costsMs.size());
  const std::uint64_t q = costsMs[rank - 1];
  // 4× headroom: a lease must comfortably outlive a typical shard, or the
  // fleet steals work it should have waited for. The clamp keeps one wild
  // sample from driving deadlines to zero or to forever.
  const std::uint64_t headroom = q > ~0ULL / 4 ? ~0ULL : q * 4;
  const std::uint64_t lo = std::max<std::uint64_t>(1, baseMs / 8);
  const std::uint64_t hi = baseMs * 64;
  return std::clamp(headroom, lo, hi);
}

// ---------------------------------------------------------------- FleetBroker

FleetBroker::FleetBroker(const std::string& storePath, FleetConfig config)
    : store_(storePath, CampaignStore::WriteMode::Atomic),
      config_(std::move(config)) {}

std::optional<CampaignStore::CellRecord> FleetBroker::makeCell(
    const std::string& name, const Workload& workload,
    const FaultModel& model, std::size_t experiments, std::uint64_t seed,
    std::size_t resolvedShardSize) {
  if (name.empty() || experiments == 0 || resolvedShardSize == 0) {
    return std::nullopt;
  }
  CampaignStore::CellRecord rec;
  rec.key = CampaignStore::campaignKey(model, experiments, seed,
                                       workload.fingerprintFor(model));
  rec.workload = name;
  rec.spec = model.label();
  rec.flipWidth = model.flipWidth;
  rec.experiments = experiments;
  rec.seed = seed;
  rec.shardSize = resolvedShardSize;
  rec.hangFactor = workload.hangFactor();
  rec.dynInstrs = workload.golden().instructions;
  // The record carries the model as its label; a worker will re-parse it.
  // Verify the round trip reproduces both the spelling and the campaign key
  // — a degenerate model that re-parses to different semantics must run
  // in-process, not stall the fleet as a cell nobody can validate.
  std::optional<FaultModel> parsed = FaultModel::parse(rec.spec);
  if (!parsed) return std::nullopt;
  parsed->flipWidth = model.flipWidth;
  if (parsed->label() != rec.spec ||
      CampaignStore::campaignKey(*parsed, experiments, seed,
                                 workload.fingerprintFor(*parsed)) !=
          rec.key) {
    return std::nullopt;
  }
  return rec;
}

bool FleetBroker::submit(const CampaignStore::CellRecord& cell) {
  if (!loaded_) {
    store_.load();
    loaded_ = true;
  }
  return store_.appendCell(cell);
}

std::vector<FleetBroker::CellStatus> FleetBroker::status() {
  if (!loaded_) {
    store_.load();
    loaded_ = true;
  } else {
    store_.refresh();
  }
  const std::uint64_t nowMs = clockOf(config_);
  std::vector<CellStatus> out;
  for (const CampaignStore::CellRecord& cell : store_.cells()) {
    CellStatus st;
    st.cell = cell;
    const ShardGeometry geo = cell.geometry();
    for (std::size_t s = 0; s < geo.shards(); ++s) {
      if (store_.findShard(cell.key, geo.first(s), geo.count(s)) != nullptr) {
        ++st.recordedShards;
        st.recordedExperiments += geo.count(s);
      } else if (store_.findQuarantine(cell.key, geo.first(s),
                                       geo.count(s))) {
        ++st.quarantinedShards;
      }
    }
    for (const CampaignStore::LeaseRecord& l : store_.leases(cell.key)) {
      if (store_.findShard(cell.key, l.first, l.count) != nullptr) {
        continue;  // superseded: the shard is done, the lease is history
      }
      if (leaseAlive(l, nowMs, config_.sameHostLiveness)) {
        ++st.activeLeases;
      } else {
        ++st.expiredLeases;
      }
    }
    out.push_back(std::move(st));
  }
  return out;
}

bool FleetBroker::complete() {
  const std::vector<CellStatus> cells = status();
  if (cells.empty()) return false;
  return std::all_of(cells.begin(), cells.end(),
                     [](const CellStatus& c) { return c.complete(); });
}

// ---------------------------------------------------------------- FleetWorker

/// A cell this worker has resolved and key-validated: the workload it runs
/// on (kept alive here) and the cell's shard executor over the worker's
/// store, which is both its resume and its record store.
struct FleetWorker::ResolvedCell {
  std::shared_ptr<const Workload> workload;
  ShardExecutor exec;
};

FleetWorker::FleetWorker(const std::string& storePath, std::string workerId,
                         FleetConfig config)
    : store_(storePath, CampaignStore::WriteMode::Atomic),
      config_(std::move(config)),
      id_(std::move(workerId)) {
  if (id_.empty()) {
    char buf[48];
    std::snprintf(buf, sizeof buf, "%llu:%04llx",
                  static_cast<unsigned long long>(util::currentPid()),
                  static_cast<unsigned long long>(
                      util::hashCombine(util::wallClockMs(),
                                        util::currentPid()) &
                      0xffff));
    id_ = buf;
  }
  if (!config_.workloadResolver) config_.workloadResolver = registryResolver();
  // Per-worker jitter stream: scheduling-only, so seeding from the id and
  // the wall clock costs no determinism.
  jitterState_ = util::hashCombine(util::hashBytes(id_),
                                   util::wallClockMs());
}

FleetWorker::~FleetWorker() = default;

std::uint64_t FleetWorker::now() const { return clockOf(config_); }

bool FleetWorker::leaseActive(const CampaignStore::LeaseRecord& lease,
                              std::uint64_t nowMs) const {
  // Our own lease never blocks us: this worker is single-threaded, so a
  // lease under our id with no shard record is the residue of an earlier
  // claim we abandoned (e.g. a cell that failed to resolve) — re-claimable.
  if (lease.worker == id_) return false;
  return leaseAlive(lease, nowMs, config_.sameHostLiveness);
}

FleetWorker::ResolvedCell* FleetWorker::resolve(
    const CampaignStore::CellRecord& cell) {
  const auto it = resolved_.find(cell.key);
  if (it != resolved_.end()) return it->second.get();
  auto fail = [&](const char* why) -> ResolvedCell* {
    std::fprintf(stderr,
                 "fleet worker %s: cell '%s' (%s) is unrunnable here: %s\n",
                 id_.c_str(), cell.workload.c_str(), cell.spec.c_str(), why);
    unrunnable_.insert(cell.key);
    return nullptr;
  };
  std::optional<FaultModel> model = FaultModel::parse(cell.spec);
  if (!model) return fail("unparseable fault spec");
  model->flipWidth = cell.flipWidth;
  std::shared_ptr<const Workload> workload = config_.workloadResolver(cell);
  if (workload == nullptr) return fail("workload did not resolve");
  auto resolved = std::make_unique<ResolvedCell>(ResolvedCell{
      workload,
      ShardExecutor(SuiteCell{cell.spec, workload.get(), *model,
                              cell.experiments, cell.seed, cell.workload},
                    cell.shardSize, &store_, &store_)});
  // The submitting broker's campaign key must be reproduced bit for bit —
  // a mismatch means the resolved workload behaves differently (source
  // drift, wrong hang factor, version skew) and any shard we ran would be
  // recorded under a key it does not belong to.
  if (resolved->exec.meta().key != cell.key) {
    return fail("campaign key mismatch (version skew?)");
  }
  return resolved_.emplace(cell.key, std::move(resolved)).first->second.get();
}

std::uint64_t FleetWorker::leaseDurationFor(std::uint64_t cellKey) {
  // Completion leases carry the observed wall-clock of their shard; the
  // deadline becomes a quantile of those costs (see adaptiveLeaseMs).
  std::vector<std::uint64_t> costs;
  for (const CampaignStore::LeaseRecord& l : store_.leases(cellKey)) {
    if (l.costMs != 0) costs.push_back(l.costMs);
  }
  return adaptiveLeaseMs(std::move(costs), kLeaseQuantile, config_.leaseMs);
}

FleetWorker::Step FleetWorker::step() {
  struct Claim {
    CampaignStore::CellRecord cell;
    std::size_t shard = 0;
    std::uint64_t epoch = 0;
    std::uint64_t leaseMs = 0;  ///< adaptive duration fixed at claim time
  };
  std::optional<Claim> claim;
  bool allRecorded = true;
  bool activeElsewhere = false;
  bool quarantinedPending = false;

  {
    // The whole read-decide-append sequence is one cross-process critical
    // section; individual appends inside re-enter the same lock.
    util::FileLock* fileLock = store_.fileLock();
    std::lock_guard<util::FileLock> guard(*fileLock);
    const CampaignStore::LoadStats read =
        loaded_ ? store_.refresh() : store_.load();
    loaded_ = true;
    if (read.cellRecords != 0) {
      cells_ = store_.cells();
      recorded_.assign(cells_.size(), false);
    }
    const std::uint64_t nowMs = now();

    // Cost-ordered scan: cells in the executor's LPT order, shards ascending
    // within a cell. Claim order never affects results, only makespan.
    // Fully recorded cells never claim, so they stay out of the order.
    std::vector<PendingWork> work(cells_.size());
    for (std::size_t c = 0; c < cells_.size(); ++c) {
      if (recorded_[c]) continue;
      const ShardGeometry geo = cells_[c].geometry();
      for (std::size_t s = 0; s < geo.shards(); ++s) {
        if (store_.findShard(cells_[c].key, geo.first(s), geo.count(s)) ==
            nullptr) {
          work[c].experiments += geo.count(s);
        }
      }
      work[c].goldenInstrs = cells_[c].dynInstrs;
      if (work[c].experiments == 0) {
        recorded_[c] = true;
      } else {
        allRecorded = false;
      }
    }
    for (const std::size_t c : lptOrder(work)) {
      if (claim) break;
      const CampaignStore::CellRecord& cell = cells_[c];
      const ShardGeometry geo = cell.geometry();
      for (std::size_t s = 0; s < geo.shards(); ++s) {
        const std::size_t first = geo.first(s);
        const std::size_t count = geo.count(s);
        if (store_.findShard(cell.key, first, count) != nullptr) continue;
        if (!config_.ignoreQuarantine &&
            store_.findQuarantine(cell.key, first, count)) {
          // Poison verdict from the supervisor: skip, so the fleet
          // converges on everything else instead of crash-looping here.
          quarantinedPending = true;
          continue;
        }
        const std::optional<CampaignStore::LeaseRecord> lease =
            store_.latestLease(cell.key, first, count);
        if (lease && leaseActive(*lease, nowMs)) {
          activeElsewhere = true;
          continue;
        }
        if (unrunnable_.count(cell.key) != 0) continue;
        Claim c2;
        c2.cell = cell;
        c2.shard = s;
        c2.epoch = lease ? lease->epoch + 1 : 1;
        c2.leaseMs = leaseDurationFor(cell.key);
        store_.appendLease(cell.key,
                           {first, count, id_, c2.epoch,
                            nowMs + c2.leaseMs});
        claim = std::move(c2);
        break;
      }
    }
  }

  if (!claim) {
    if (allRecorded) return Step::Done;
    if (activeElsewhere) return Step::Idle;
    return quarantinedPending ? Step::Quarantined : Step::Stalled;
  }
  ++claims_;
  if (config_.onClaim) config_.onClaim(claims_);
#if !defined(_WIN32)
  if (!config_.poisonWorkload.empty() &&
      claim->cell.workload == config_.poisonWorkload &&
      (config_.poisonShard == static_cast<std::size_t>(-1) ||
       config_.poisonShard == claim->shard)) {
    // Artificial poison shard: die the way a real one kills its host —
    // uncleanly, mid-lease, right after claiming.
    ::raise(SIGKILL);
  }
#endif

  ResolvedCell* resolved = resolve(claim->cell);
  if (resolved == nullptr) {
    // The claim is burned; our own lease never blocks us and lapses for
    // everyone else. The next step() skips this cell via unrunnable_.
    return Step::Idle;
  }

  const ShardExecutor& exec = resolved->exec;
  const CampaignStore::CellRecord& cell = claim->cell;
  const std::size_t first = exec.geometry().first(claim->shard);
  const std::size_t count = exec.geometry().count(claim->shard);
  // Floored at 1 ms: a 1-2 ms lease would otherwise renew after every
  // experiment.
  const std::uint64_t heartbeatMs =
      std::max<std::uint64_t>(config_.leaseMs / 3, 1);
  const std::uint64_t startedMs = now();
  std::uint64_t lastBeat = startedMs;
  const ShardTally tally = exec.run(claim->shard, [&] {
    const std::uint64_t t = now();
    if (t - lastBeat >= heartbeatMs) {
      // Renew within our epoch: same claim, pushed-out deadline.
      store_.appendLease(cell.key, {first, count, id_, claim->epoch,
                                    t + claim->leaseMs});
      lastBeat = t;
    }
  });
  bool recorded = exec.record(store_, claim->shard, tally);
  if (!recorded && store_.lastWriteOutOfSpace()) {
    // Out of space is a pause-and-retry state, not a verdict: the computed
    // shard is too expensive to throw away while the disk may drain (log
    // rotation, a compaction elsewhere). Park on our heartbeat — keep the
    // lease warm so nobody re-runs the shard under us — and keep retrying
    // until the park budget runs out.
    const std::uint64_t parkMs = 2 * config_.leaseMs;
    const std::uint64_t parkDeadline = now() + parkMs;
    std::fprintf(stderr,
                 "fleet worker %s: store '%s' is out of space; parking "
                 "shard %zu of '%s' for up to %llu ms\n",
                 id_.c_str(), store_.path().c_str(), claim->shard,
                 cell.workload.c_str(),
                 static_cast<unsigned long long>(parkMs));
    while (now() < parkDeadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(
          std::min<std::uint64_t>(heartbeatMs, 1000)));
      const std::uint64_t t = now();
      store_.appendLease(cell.key, {first, count, id_, claim->epoch,
                                    t + claim->leaseMs});  // best-effort
      recorded = exec.record(store_, claim->shard, tally);
      if (recorded || !store_.lastWriteOutOfSpace()) break;
    }
  }
  if (recorded) {
    // Completion renewal: stamp the shard's observed wall-clock into the
    // lease stream (never the shard record — wall-clock is nondeterministic
    // and shard records must stay byte-identical across runs). The deadline
    // is already `now`: the shard record supersedes the lease anyway.
    const std::uint64_t t = now();
    const std::uint64_t cost = std::max<std::uint64_t>(1, t - startedMs);
    store_.appendLease(cell.key, {first, count, id_, claim->epoch, t, cost});
  } else {
    std::fprintf(stderr,
                 "fleet worker %s: store '%s' is not recording (write "
                 "failed); shard %zu of '%s' was computed but lost\n",
                 id_.c_str(), store_.path().c_str(), claim->shard,
                 cell.workload.c_str());
  }
  ++shardsRun_;
  return Step::Ran;
}

FleetWorker::Step FleetWorker::run(std::size_t maxShards) {
  for (;;) {
    const Step step = this->step();
    if (step == Step::Done || step == Step::Stalled ||
        step == Step::Quarantined) {
      return step;
    }
    if (step == Step::Ran) {
      prevSleepMs_ = 0;  // work found: restart the jitter ramp
      if (maxShards != 0 && shardsRun_ >= maxShards) return step;
    }
    if (step == Step::Idle) {
      // Decorrelated jitter (not fixed pollMs): uniform in
      // [pollMs, 3 × previous sleep], capped at 16 × pollMs. N idle workers
      // polling one store spread out instead of convoying on the flock at
      // the same instant every period.
      const std::uint64_t base = std::max<std::uint64_t>(1, config_.pollMs);
      const std::uint64_t cap = base * 16;
      const std::uint64_t prev = std::max(prevSleepMs_, base);
      std::uint64_t sleep = base;
      if (const std::uint64_t span = prev * 3 - base; span != 0) {
        sleep = base + util::SplitMix64(jitterState_++).next() % span;
      }
      sleep = std::min(sleep, cap);
      prevSleepMs_ = sleep;
      std::this_thread::sleep_for(std::chrono::milliseconds(sleep));
    }
  }
}

// ------------------------------------------------------- local fleet halves

std::size_t submitSuite(const CampaignSuite& suite, const SuiteConfig& config,
                        const std::string& storePath, FleetConfig& fleet) {
  FleetBroker broker(storePath, fleet);
  std::unordered_map<std::uint64_t, const Workload*> inherited;
  for (std::size_t c = 0; c < suite.cellCount(); ++c) {
    const SuiteCell& cell = suite.cell(c);
    if (cell.workload == nullptr || cell.experiments == 0) continue;
    const std::optional<CampaignStore::CellRecord> rec =
        FleetBroker::makeCell(
            cell.storeName, *cell.workload, cell.model, cell.experiments,
            cell.seed, resolveShardSize(cell.experiments, config.shardSize));
    // A cell makeCell() refuses (unnamed, or a degenerate model whose label
    // does not round-trip) is simply left for the in-process final pass.
    if (rec && broker.submit(*rec)) {
      inherited.try_emplace(rec->key, cell.workload);
    }
  }
  if (!fleet.workloadResolver) {
    fleet.workloadResolver =
        [inherited, fallback = registryResolver()](
            const CampaignStore::CellRecord& cell) mutable
        -> std::shared_ptr<const Workload> {
      const auto it = inherited.find(cell.key);
      if (it == inherited.end()) return fallback(cell);
      // Non-owning: the suite outlives every worker forked from its owner.
      return {std::shared_ptr<const Workload>(), it->second};
    };
  }
  return inherited.size();
}

std::vector<CampaignResult> finishSuite(const CampaignSuite& suite,
                                        const SuiteConfig& config,
                                        const std::string& storePath) {
  // No lease interleaving can change this pass's answer, only how much of
  // the work it still has to do — which is what makes the fleet safe.
  CampaignStore store(storePath, CampaignStore::WriteMode::Atomic);
  store.load();
  SuiteConfig finalConfig = config;
  finalConfig.record = &store;
  finalConfig.resume = &store;
  CampaignSuite remainder(finalConfig);
  for (std::size_t c = 0; c < suite.cellCount(); ++c) {
    remainder.addCell(suite.cell(c));
  }
  return remainder.run();
}

}  // namespace onebit::fi
