// The onebit benchmark binary: runs one workload's sweep back to back for a
// fixed time and prints its measurements as one JSON line on stdout.
//
//   perfbench --workload NAME --seconds S --trace 0|1
//             --work-dir DIR --figure-out FILE
//
// run.py builds this binary, runs the reference driver, compares the figure
// this binary wrote to FILE against the driver's stdout, and prints the
// benchmark result. Selection and execution knobs come from the environment
// exactly as the paper drivers read them (ONEBIT_SEED, ONEBIT_EXPERIMENTS,
// ONEBIT_PROGRAMS, ONEBIT_THREADS, ONEBIT_FLEET_WORKERS, ...), through
// bench/bench_common.hpp, so a change to a driver default reaches the
// benchmark too.
//
// Workloads (README.md says why each was chosen):
//   fig1_single_bit  the Fig. 1 sweep, in-process
//   fig4_grid        the Fig. 4/5/Table III grid plus re-validation cells,
//                    in-process
//   fleet_store      the same grid through fi::runFleet over a fresh JSONL
//                    store, the figure read back through analytics
//
// Each iteration is one whole driver run done in-process: set-up (compile,
// golden profiling, snapshot capture; for fleet_store also store creation
// and cell submission), then the sweep and the figure render. The first
// iteration is a discarded warm-up. With --trace 1 traced and untraced
// iterations alternate, and after them two probes time vm::execute and
// fi::runExperiment call by call.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "analytics/dataset.hpp"
#include "analytics/figures.hpp"
#include "bench_common.hpp"
#include "pruning/pessimistic_pairs.hpp"
#include "trace.hpp"
#include "util/jsonl.hpp"
#include "vm/threaded.hpp"

namespace {

using namespace onebit;
using perfbench::nowNs;
using perfbench::Tracer;
using Span = Tracer::Span;
using Json = util::Json;

enum class Kind { Fig1, Fig4, Fleet };

struct Options {
  Kind kind = Kind::Fig1;
  double seconds = 10.0;
  bool trace = false;
  std::string workDir;
  std::string figureOut;
};

/// Experiments the experiment probe times, spread evenly over the sweep.
constexpr std::size_t kProbeSamples = 4000;
/// Minimum timed iterations: untraced ones with --trace 0, traced and
/// untraced pairs with --trace 1.
constexpr std::size_t kMinIterations = 3;
constexpr std::size_t kMinTracedPairs = 2;
/// Set-up samples behind the setup_s median: set-up-only runs top up the
/// iterations' own samples to this many, within kSetupTopUpS seconds.
constexpr std::size_t kMinSetups = 21;
constexpr double kSetupTopUpS = 2.0;

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

#if PERFBENCH_SANITIZE || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif

double seconds(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
}

/// Nearest-rank percentile of an unsorted sample.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// One campaign cell of a sweep phase.
struct Cell {
  std::string name;
  const fi::Workload* workload = nullptr;
  fi::FaultModel model;
  std::size_t experiments = 0;
  std::uint64_t seed = 0;
};

struct Phase {
  std::vector<Cell> cells;
  std::vector<fi::CampaignResult> results;  ///< one per cell, cell order
};

/// One program/technique grid of the Fig. 4 sweep: its base seed and the
/// slice of the grid phase's cells it owns.
struct Grid {
  std::string name;
  const fi::Workload* workload = nullptr;
  std::uint64_t baseSeed = 0;
  std::size_t first = 0;
  std::size_t count = 0;
};

/// Per-layer values of one traced iteration, by metric name.
using Layer = std::map<std::string, double>;

/// Everything one iteration produced. Owns the programs its cells point at.
struct Iteration {
  std::vector<bench::NamedWorkload> programs;
  std::vector<Phase> phases;
  double setupS = 0.0;
  double sweepS = 0.0;
  std::size_t requested = 0;
  std::size_t tallied = 0;  ///< experiments of complete campaigns
  std::string figure;
  bool figureComplete = false;
  bool readbackMatches = true;  ///< fleet_store: store readback == results
  Layer layer;                  ///< traced iterations only
};

/// Experiments per campaign cell: the drivers' default, or ONEBIT_EXPERIMENTS.
std::size_t experimentsPerCell(Kind kind) {
  return bench::experimentsPerCampaign(kind == Kind::Fig1 ? 400 : 80);
}

/// fleet_store's JSONL store: the fleet's work queue and its results.
std::string storePathOf(const Options& opt) {
  return opt.workDir + "/store.jsonl";
}

/// Compile and profile the selected Table II programs under the drivers'
/// knobs: the policies bench::loadWorkloads() applies, split into compile
/// and workload construction so each gets its own span.
std::vector<bench::NamedWorkload> loadPrograms(Tracer& tracer) {
  const fi::SnapshotPolicy snapshots = bench::snapshotPolicyFromEnv();
  const fi::PrunePolicy prune = bench::prunePolicyFromEnv();
  const vm::DispatchBackend dispatch = bench::dispatchFromEnv();
  std::vector<bench::NamedWorkload> out;
  for (const progs::ProgramInfo& info : progs::allPrograms()) {
    if (!bench::programSelected(info.name)) continue;
    ir::Module mod = [&] {
      Span span(tracer, "lang.compile");
      return progs::compileProgram(info);
    }();
    Span span(tracer, "workload.golden");
    out.push_back({info.name,
                   fi::Workload(std::move(mod),
                                fi::Workload::kDefaultHangFactor, snapshots,
                                prune, dispatch)});
  }
  return out;
}

/// The Fig. 1 cells, in bench/fig1_single_bit.cpp's order and seed-salt walk.
std::vector<Cell> fig1Cells(const std::vector<bench::NamedWorkload>& programs,
                            std::size_t n) {
  std::vector<Cell> cells;
  for (const fi::FaultDomain tech :
       {fi::FaultDomain::RegisterRead, fi::FaultDomain::RegisterWrite}) {
    fi::FaultModel spec = fi::FaultModel::singleBit(tech);
    if (!bench::specSelected(spec)) continue;
    spec.flipWidth = bench::flipWidth();
    std::uint64_t salt = tech == fi::FaultDomain::RegisterRead ? 100 : 200;
    for (const auto& [name, w] : programs) {
      cells.push_back(
          {name, &w, spec, n, util::hashCombine(bench::masterSeed(), salt++)});
    }
  }
  return cells;
}

/// Phase 1 of bench/fig4_fig5_table3.cpp: every program's read grid, then
/// every program's write grid, seed salts counting up from 50000.
std::vector<Cell> fig4GridCells(
    const std::vector<bench::NamedWorkload>& programs, std::size_t n,
    std::vector<Grid>& grids) {
  std::vector<Cell> cells;
  std::uint64_t salt = 50000;
  for (const fi::FaultDomain tech :
       {fi::FaultDomain::RegisterRead, fi::FaultDomain::RegisterWrite}) {
    for (const auto& [name, w] : programs) {
      const std::uint64_t baseSeed =
          util::hashCombine(bench::masterSeed(), salt++);
      const std::vector<fi::CampaignConfig> configs =
          pruning::gridCampaigns(tech, n, baseSeed, bench::flipWidth());
      grids.push_back({name, &w, baseSeed, cells.size(), configs.size()});
      for (const fi::CampaignConfig& c : configs) {
        cells.push_back({name, &w, c.model, c.experiments, c.seed});
      }
    }
  }
  return cells;
}

/// Phase 2 of the Fig. 4 driver: one re-validation cell per grid whose
/// pessimistic-pair selection found a multi-bit best.
std::vector<Cell> fig4ValidationCells(const Phase& grid,
                                      const std::vector<Grid>& grids,
                                      std::size_t n) {
  std::vector<Cell> cells;
  for (const Grid& g : grids) {
    std::vector<pruning::CampaignSdc> all;
    for (std::size_t j = g.first; j < g.first + g.count; ++j) {
      all.push_back({grid.cells[j].model, grid.results[j].sdc()});
    }
    const pruning::PessimisticPairResult pair =
        pruning::selectPessimisticPair(std::move(all));
    if (!pair.hasBest) continue;
    const fi::CampaignConfig c =
        pruning::validationCampaign(pair.bestModel, n, g.baseSeed, 3);
    cells.push_back({g.name, g.workload, c.model, c.experiments, c.seed});
  }
  return cells;
}

fi::CampaignSuite makeSuite(const fi::SuiteConfig& config,
                            const std::vector<Cell>& cells) {
  fi::CampaignSuite suite(config);
  for (const Cell& c : cells) {
    suite.addCell(c.name + " " + c.model.label(), *c.workload, c.model,
                  c.experiments, c.seed, c.name);
  }
  return suite;
}

/// Run one phase on the in-process pool. Traced, the suite's progress
/// callback stamps every shard completion and the phase adds its LPT tail:
/// the time from the moment fewer than P shards remain to the end of run().
void runInProcess(const fi::SuiteConfig& config, Phase& phase, Tracer& tracer,
                  Layer& layer) {
  fi::CampaignSuite suite = makeSuite(config, phase.cells);
  std::vector<std::int64_t> doneNs;
  if (tracer.enabled()) {
    suite.onProgress(
        [&doneNs](const fi::SuiteProgress&) { doneNs.push_back(nowNs()); });
  }
  const std::int64_t start = nowNs();
  {
    Span span(tracer, "suite.run");
    phase.results = suite.run();
  }
  if (!tracer.enabled()) return;
  const std::int64_t end = nowNs();
  const std::size_t p = fi::resolveThreads(config.threads);
  const std::int64_t tailStart =
      doneNs.size() >= p ? doneNs[doneNs.size() - p] : start;
  layer["suite.tail_s"] += seconds(end - tailStart);
}

/// Run one phase through a forked local fleet over `storePath`; returns the
/// fleet's wall time in milliseconds.
double runOnFleet(const fi::SuiteConfig& config, Phase& phase,
                  const std::string& storePath,
                  const fi::LocalFleetOptions& fleet, Tracer& tracer) {
  const fi::CampaignSuite suite = makeSuite(config, phase.cells);
  const std::int64_t start = nowNs();
  Span span(tracer, "fleet.run");
  phase.results = fi::runFleet(suite, config, storePath, fleet);
  return static_cast<double>(nowNs() - start) / 1e6;
}

/// Create a fresh fleet store and submit `cells` to it — the part of a
/// fleet run's set-up that happens before any worker can claim a shard.
void submitCells(const std::string& storePath, const fi::SuiteConfig& config,
                 const fi::FleetConfig& fleet, const std::vector<Cell>& cells,
                 Tracer& tracer) {
  Span span(tracer, "store.submit");
  std::filesystem::remove(storePath);
  std::filesystem::remove(storePath + ".lock");
  fi::FleetBroker broker(storePath, fleet);
  for (const Cell& c : cells) {
    const std::optional<fi::CampaignStore::CellRecord> rec =
        fi::FleetBroker::makeCell(
            c.name, *c.workload, c.model, c.experiments, c.seed,
            fi::resolveShardSize(c.experiments, config.shardSize));
    if (!rec || !broker.submit(*rec)) {
      throw std::runtime_error("cannot submit cell " + c.name + " " +
                               c.model.label() + " to " + storePath);
    }
  }
}

/// The in-memory store snapshot a results vector amounts to: one complete
/// shard per campaign, keyed exactly as a store would key it. Lets the
/// in-process workloads render their figure through the same analytics
/// path the store readback uses.
fi::CampaignStore::Snapshot snapshotOf(const std::vector<Phase>& phases) {
  fi::CampaignStore::Snapshot snap;
  for (const Phase& phase : phases) {
    for (std::size_t i = 0; i < phase.cells.size(); ++i) {
      const Cell& c = phase.cells[i];
      const fi::CampaignResult& r = phase.results[i];
      if (!r.complete()) continue;
      const std::uint64_t key = fi::CampaignStore::campaignKey(
          c.model, c.experiments, c.seed, c.workload->fingerprintFor(c.model));
      fi::CampaignStore::Snapshot::Campaign& camp = snap.campaigns[key];
      camp.meta = {key,
                   c.name,
                   c.model.label(),
                   c.seed,
                   c.experiments,
                   c.workload->candidates(c.model.domain)};
      camp.shards[{0, c.experiments}] = {r.counts, r.activationHist};
    }
  }
  return snap;
}

const char* figureId(Kind kind) { return kind == Kind::Fig1 ? "fig1" : "fig4"; }

/// Render the workload's figure from `ds`; the text is empty when the id is
/// unknown.
analytics::FigureOutput render(Kind kind, const analytics::Dataset& ds,
                               Tracer& tracer) {
  Span span(tracer, "analytics.render");
  return analytics::renderFigure(figureId(kind), ds)
      .value_or(analytics::FigureOutput{});
}

analytics::FigureOutput renderResults(Kind kind,
                                      const std::vector<Phase>& phases,
                                      Tracer& tracer) {
  analytics::Dataset ds;
  {
    Span span(tracer, "analytics.dataset");
    ds.addSnapshot(snapshotOf(phases), "results");
  }
  return render(kind, ds, tracer);
}

analytics::FigureOutput renderStore(Kind kind, const std::string& storePath,
                                    Tracer& tracer) {
  analytics::Dataset ds;
  {
    Span span(tracer, "analytics.dataset");
    ds.addStore(storePath);
  }
  return render(kind, ds, tracer);
}

/// Fleet and store layers, read from the finished store: lease records
/// carry the worker id and, on completion, the shard's cost_ms.
void readFleetLayers(const std::string& storePath, std::size_t workers,
                     double fleetMs, Layer& layer) {
  fi::CampaignStore store(storePath);
  const std::int64_t start = nowNs();
  const fi::CampaignStore::LoadStats stats = store.load();
  layer["store.load_ms"] = static_cast<double>(nowNs() - start) / 1e6;
  const fi::CampaignStore::Snapshot snap = store.snapshot();
  double costMs = 0.0;
  std::size_t completions = 0;
  std::size_t shards = 0;
  std::set<std::pair<std::string, std::uint64_t>> resolves;
  for (const auto& [key, camp] : snap.campaigns) {
    shards += camp.shards.size();
    for (const auto& [range, lease] : camp.leases) {
      resolves.insert({lease.worker, key});
      if (lease.costMs != 0) {
        costMs += static_cast<double>(lease.costMs);
        ++completions;
      }
    }
  }
  const double capacityMs = static_cast<double>(workers) * fleetMs;
  layer["fleet.busy_frac"] = ratio(costMs, capacityMs);
  layer["fleet.claim_ms"] = ratio(capacityMs - costMs,
                                  static_cast<double>(completions));
  layer["fleet.cell_resolves"] = static_cast<double>(resolves.size());
  layer["fleet.reexecuted_shards"] = static_cast<double>(stats.duplicates);
  layer["fleet.remainder_shards"] =
      static_cast<double>(shards > completions ? shards - completions : 0);
  layer["store.records_per_shard"] =
      ratio(static_cast<double>(stats.lines()),
            static_cast<double>(stats.shardRecords));
  layer["store.mb"] =
      static_cast<double>(std::filesystem::file_size(storePath)) / 1e6;
}

/// Set-up for one iteration: programs, plus for fleet_store the fresh store
/// with the grid phase's cells submitted.
void setUp(const Options& opt, Iteration& it, std::vector<Grid>& grids,
           Tracer& tracer) {
  const std::int64_t start = nowNs();
  it.programs = loadPrograms(tracer);
  const std::size_t n = experimentsPerCell(opt.kind);
  Phase first;
  first.cells = opt.kind == Kind::Fig1 ? fig1Cells(it.programs, n)
                                       : fig4GridCells(it.programs, n, grids);
  if (opt.kind == Kind::Fleet) {
    submitCells(storePathOf(opt), bench::suiteConfigFromEnv(),
                bench::fleetOptionsFromEnv().config, first.cells, tracer);
  }
  it.phases.push_back(std::move(first));
  it.setupS = seconds(nowNs() - start);
}

/// The per-layer values a traced iteration yields from its spans and
/// results. Fleet and store layers stay 0 unless readFleetLayers fills them.
void collectLayers(Iteration& it, const Tracer& tracer,
                   const fi::SuiteConfig& config) {
  Layer& layer = it.layer;
  layer["lang.compile_ms"] = tracer.totalMs("lang.compile");
  layer["workload.golden_ms"] = tracer.totalMs("workload.golden");
  double snapshotBytes = 0.0;
  for (const auto& [name, w] : it.programs) {
    snapshotBytes += static_cast<double>(w.snapshotBytes());
  }
  layer["workload.snapshot_kb"] = snapshotBytes / 1024.0;
  fi::PruneStats prune;
  double executed = 0.0;
  double shards = 0.0;
  double cells = 0.0;
  for (const Phase& phase : it.phases) {
    for (std::size_t i = 0; i < phase.cells.size(); ++i) {
      const fi::CampaignResult& r = phase.results[i];
      prune += r.prune;
      executed +=
          static_cast<double>(r.completedExperiments - r.resumedExperiments);
      const std::size_t e = phase.cells[i].experiments;
      const std::size_t size = fi::resolveShardSize(e, config.shardSize);
      shards += static_cast<double>((e + size - 1) / size);
      cells += 1.0;
    }
  }
  layer["prune.golden_hits"] = static_cast<double>(prune.goldenHits);
  layer["prune.cache_hits"] = static_cast<double>(prune.cacheHits);
  layer["prune.misses"] = static_cast<double>(prune.misses);
  layer["prune.short_circuit_frac"] =
      ratio(static_cast<double>(prune.shortCircuited()), executed);
  layer["suite.cells"] = cells;
  layer["suite.shards"] = shards;
  layer.try_emplace("suite.tail_s", 0.0);  // the fleet has no in-process pool
  layer["analytics.dataset_ms"] = tracer.totalMs("analytics.dataset");
  layer["analytics.render_ms"] = tracer.totalMs("analytics.render");
  for (const char* name :
       {"fleet.busy_frac", "fleet.claim_ms", "fleet.cell_resolves",
        "fleet.reexecuted_shards", "fleet.remainder_shards",
        "store.records_per_shard", "store.mb", "store.load_ms"}) {
    layer[name] = 0.0;
  }
}

Iteration runIteration(const Options& opt, Tracer& tracer) {
  Iteration it;
  std::vector<Grid> grids;
  setUp(opt, it, grids, tracer);
  const fi::SuiteConfig config = bench::suiteConfigFromEnv();
  const fi::LocalFleetOptions fleet = bench::fleetOptionsFromEnv();
  const std::string storePath = storePathOf(opt);
  double fleetMs = 0.0;

  const std::int64_t start = nowNs();
  auto runPhase = [&](Phase& phase) {
    if (opt.kind == Kind::Fleet) {
      fleetMs += runOnFleet(config, phase, storePath, fleet, tracer);
    } else {
      runInProcess(config, phase, tracer, it.layer);
    }
  };
  runPhase(it.phases[0]);
  if (opt.kind != Kind::Fig1) {
    Phase validation;
    validation.cells =
        fig4ValidationCells(it.phases[0], grids, experimentsPerCell(opt.kind));
    it.phases.push_back(std::move(validation));
    runPhase(it.phases[1]);
  }
  const analytics::FigureOutput fig =
      opt.kind == Kind::Fleet ? renderStore(opt.kind, storePath, tracer)
                              : renderResults(opt.kind, it.phases, tracer);
  it.sweepS = seconds(nowNs() - start);
  it.figure = fig.text;
  it.figureComplete = !fig.text.empty() && fig.complete();

  for (const Phase& phase : it.phases) {
    for (const fi::CampaignResult& r : phase.results) {
      it.requested += r.config.experiments;
      if (r.complete()) it.tallied += r.completedExperiments;
    }
  }
  if (opt.kind == Kind::Fleet) {
    // The fleet's own results, rendered like an in-process run's, are the
    // driver output the store readback must reproduce byte for byte.
    Tracer off;
    it.readbackMatches = renderResults(opt.kind, it.phases, off).text ==
                         it.figure;
  }
  if (tracer.enabled()) {
    collectLayers(it, tracer, config);
    if (opt.kind == Kind::Fleet) {
      readFleetLayers(storePath, fleet.workers, fleetMs, it.layer);
    }
  }
  return it;
}

/// Hook-free vm::execute throughput over the programs, in millions of
/// dynamic instructions per second.
double vmMinstrPerS(const std::map<std::string, const fi::Workload*>& programs,
                    vm::DispatchBackend backend) {
  std::uint64_t instructions = 0;
  std::int64_t ns = 0;
  for (int rep = 0; rep < 3; ++rep) {
    for (const auto& [name, w] : programs) {
      vm::ExecLimits limits;
      limits.dispatch = backend;
      if (backend == vm::DispatchBackend::Threaded) {
        limits.threadedCode = vm::ThreadedCode::get(w->module());
      }
      const std::int64_t start = nowNs();
      const vm::ExecResult r = vm::execute(w->module(), limits);
      ns += nowNs() - start;
      instructions += r.instructions;
    }
  }
  return ratio(static_cast<double>(instructions), seconds(ns)) / 1e6;
}

/// Time fi::runExperiment call by call over an even sample of the sweep's
/// experiments (every stride-th experiment in cell order), each on the
/// workload `programs` holds under its cell's program name.
void probeExperiments(
    const std::vector<Phase>& phases,
    const std::map<std::string, const fi::Workload*>& programs, Layer& layer) {
  std::size_t total = 0;
  for (const Phase& phase : phases) {
    for (const Cell& c : phase.cells) total += c.experiments;
  }
  const std::size_t stride =
      std::max<std::size_t>(1, (total + kProbeSamples - 1) / kProbeSamples);
  std::vector<double> us;
  double hangUs = 0.0;
  double instructions = 0.0;
  double skipped = 0.0;
  double hooked = 0.0;
  std::size_t index = 0;
  for (const Phase& phase : phases) {
    for (const Cell& c : phase.cells) {
      const fi::Workload& w = *programs.at(c.name);
      const std::uint64_t candidates = w.candidates(c.model.domain);
      for (std::size_t i = 0; i < c.experiments; ++i) {
        if (index++ % stride != 0) continue;
        const fi::FaultPlan plan =
            fi::FaultPlan::forExperiment(c.model, candidates, c.seed, i);
        const vm::Snapshot* snap = w.snapshotAtOrBefore(
            plan.domain, plan.firstIndex, w.faultyLimits().maxInstructions);
        const std::int64_t start = nowNs();
        const fi::ExperimentResult r = fi::runExperiment(w, plan);
        const double dt = static_cast<double>(nowNs() - start) / 1e3;
        us.push_back(dt);
        if (r.outcome == stats::Outcome::Hang) hangUs += dt;
        instructions += static_cast<double>(r.instructions);
        if (snap != nullptr) skipped += static_cast<double>(snap->instructions);
        if (plan.pattern.kind == fi::BitPattern::Kind::MultiBitTemporal &&
            plan.pattern.count > 1) {
          hooked += static_cast<double>(std::min<std::uint64_t>(
              plan.window * (plan.pattern.count - 1), r.instructions));
        }
      }
    }
  }
  double totalUs = 0.0;
  for (const double t : us) totalUs += t;
  layer["experiment.samples"] = static_cast<double>(us.size());
  layer["experiment.us_p50"] = percentile(us, 0.50);
  layer["experiment.us_p99"] = percentile(us, 0.99);
  layer["experiment.sim_minstr_per_s"] = ratio(instructions, totalUs);
  layer["experiment.prefix_skipped_frac"] = ratio(skipped, instructions);
  layer["experiment.hooked_instr_frac"] = ratio(hooked, instructions);
  layer["experiment.hang_time_frac"] = ratio(hangUs, totalUs);
}

/// The probes, run once after the timed iterations on the last traced
/// iteration's cells. fleet_store probes the workloads its workers run:
/// fleet.cpp's default resolver builds them from the registry with default
/// policies and the reference (switch) backend.
void probe(const Options& opt, const Iteration& it, Layer& layer) {
  std::vector<bench::NamedWorkload> fleetSide;
  if (opt.kind == Kind::Fleet) {
    for (const auto& [name, w] : it.programs) {
      fleetSide.push_back(
          {name, fi::Workload(progs::compileProgram(*progs::findProgram(name)),
                              w.hangFactor())});
    }
  }
  const std::vector<bench::NamedWorkload>& programs =
      opt.kind == Kind::Fleet ? fleetSide : it.programs;
  std::map<std::string, const fi::Workload*> byName;
  for (const auto& [name, w] : programs) byName[name] = &w;
  layer["vm.minstr_per_s"] = vmMinstrPerS(
      byName, opt.kind == Kind::Fleet ? vm::DispatchBackend::Switch
                                      : bench::dispatchFromEnv());
  probeExperiments(it.phases, byName, layer);
}

/// Peak RSS of this process and of the largest worker child it waited
/// for, in MB. This process's own peak is VmHWM, not ru_maxrss: ru_maxrss
/// survives exec() and would report the launcher's footprint.
double peakRssMb() {
  long selfKiB = 0;
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) selfKiB = std::atol(line.c_str() + 6);
  }
  rusage children{};
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(selfKiB, children.ru_maxrss)) * 1024.0 /
         1e6;
}

Json metric(double value, const char* unit) {
  Json m = Json::object();
  m.set("value", Json::number(std::isfinite(value) ? value : 0.0));
  m.set("unit", Json::string(unit));
  return m;
}

const char* layerUnit(const std::string& name) {
  static const std::map<std::string, const char*, std::less<>> units = {
      {"lang.compile_ms", "ms"},
      {"workload.golden_ms", "ms"},
      {"workload.snapshot_kb", "KiB"},
      {"vm.minstr_per_s", "Minstr/s"},
      {"experiment.samples", "count"},
      {"experiment.us_p50", "us"},
      {"experiment.us_p99", "us"},
      {"experiment.sim_minstr_per_s", "Minstr/s"},
      {"experiment.prefix_skipped_frac", "ratio"},
      {"experiment.hooked_instr_frac", "ratio"},
      {"experiment.hang_time_frac", "ratio"},
      {"prune.short_circuit_frac", "ratio"},
      {"prune.golden_hits", "count"},
      {"prune.cache_hits", "count"},
      {"prune.misses", "count"},
      {"suite.cells", "count"},
      {"suite.shards", "count"},
      {"suite.tail_s", "s"},
      {"fleet.busy_frac", "ratio"},
      {"fleet.claim_ms", "ms"},
      {"fleet.cell_resolves", "count"},
      {"fleet.reexecuted_shards", "count"},
      {"fleet.remainder_shards", "count"},
      {"store.records_per_shard", "ratio"},
      {"store.mb", "MB"},
      {"store.load_ms", "ms"},
      {"analytics.dataset_ms", "ms"},
      {"analytics.render_ms", "ms"},
      {"trace.overhead_frac", "ratio"},
  };
  const auto it = units.find(name);
  if (it == units.end()) {
    throw std::logic_error("per-layer metric without a unit: " + name);
  }
  return it->second;
}

int run(const Options& opt) {
  Tracer tracer;
  const Iteration warmup = runIteration(opt, tracer);
  bool consistent = warmup.figureComplete && warmup.readbackMatches;

  std::vector<double> setups;
  std::vector<double> rates;
  std::vector<double> untracedWall;
  std::vector<double> tracedWall;
  std::map<std::string, std::vector<double>> layers;
  std::optional<Iteration> lastTraced;
  Json spans = Json::array();
  std::size_t attempted = 0;
  std::size_t failed = 0;

  const std::int64_t start = nowNs();
  for (std::size_t i = 0;; ++i) {
    const bool traced = opt.trace && i % 2 == 1;
    tracer.reset(traced);
    Iteration it = runIteration(opt, tracer);
    consistent = consistent && it.figureComplete && it.readbackMatches &&
                 it.figure == warmup.figure;
    attempted += it.requested;
    failed += it.requested - it.tallied;
    (traced ? tracedWall : untracedWall).push_back(it.setupS + it.sweepS);
    if (traced) {
      for (const auto& [name, value] : it.layer) layers[name].push_back(value);
      spans = tracer.toJson();
      lastTraced.emplace(std::move(it));
    } else {
      setups.push_back(it.setupS);
      rates.push_back(ratio(static_cast<double>(it.tallied), it.sweepS));
    }
    const bool enough =
        opt.trace ? tracedWall.size() >= kMinTracedPairs
                  : untracedWall.size() >= kMinIterations;
    if (enough && seconds(nowNs() - start) >= opt.seconds) break;
  }

  Json endToEnd = Json::object();
  Json perLayer = Json::object();
  if (opt.trace) {
    Layer layer;
    for (const auto& [name, values] : layers) layer[name] = median(values);
    probe(opt, *lastTraced, layer);
    layer["trace.overhead_frac"] =
        ratio(median(tracedWall), median(untracedWall)) - 1.0;
    for (const auto& [name, value] : layer) {
      perLayer.set(name, metric(value, layerUnit(name)));
    }
    std::ofstream(opt.workDir + "/spans.json") << spans.dump() << '\n';
  } else {
    // Top up the set-up median with set-up-only runs when the sweep was
    // long enough that few iterations fit in the measured time.
    const std::int64_t topUp = nowNs();
    while (setups.size() < kMinSetups &&
           seconds(nowNs() - topUp) < kSetupTopUpS) {
      Iteration extra;
      std::vector<Grid> grids;
      tracer.reset(false);
      setUp(opt, extra, grids, tracer);
      setups.push_back(extra.setupS);
    }
    endToEnd.set("setup_s", metric(median(setups), "s"));
    endToEnd.set("exp_per_s", metric(median(rates), "1/s"));
    endToEnd.set("peak_rss_mb", metric(peakRssMb(), "MB"));
  }
  std::filesystem::remove(storePathOf(opt));
  std::filesystem::remove(storePathOf(opt) + ".lock");
  std::ofstream(opt.figureOut, std::ios::binary) << warmup.figure;

  const fi::SuiteConfig config = bench::suiteConfigFromEnv();
  Json build = Json::object();
  build.set("build_type", Json::string(PERFBENCH_BUILD_TYPE));
  build.set("compiler", Json::string(kCompiler));
  build.set("threads", Json::number(static_cast<std::uint64_t>(
                           fi::resolveThreads(config.threads))));
  Json out = Json::object();
  out.set("figure_consistent", Json::boolean(consistent));
  out.set("iterations", Json::number(static_cast<std::uint64_t>(
                            untracedWall.size() + tracedWall.size())));
  out.set("attempted", Json::number(static_cast<std::uint64_t>(attempted)));
  out.set("failed", Json::number(static_cast<std::uint64_t>(failed)));
  out.set("end_to_end", std::move(endToEnd));
  out.set("per_layer", std::move(perLayer));
  out.set("build", std::move(build));
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "fig1_single_bit|fig4_grid|fleet_store --seconds S "
               "--trace 0|1 --work-dir DIR --figure-out FILE\n",
               why);
  std::exit(2);
}

Options parseArgs(int argc, char** argv) {
  Options opt;
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seconds") {
      opt.seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      opt.trace = value == "1";
    } else if (arg == "--work-dir") {
      opt.workDir = value;
    } else if (arg == "--figure-out") {
      opt.figureOut = value;
    } else {
      usage(("unknown option " + arg).c_str());
    }
  }
  if (workload == "fig1_single_bit") {
    opt.kind = Kind::Fig1;
  } else if (workload == "fig4_grid") {
    opt.kind = Kind::Fig4;
  } else if (workload == "fleet_store") {
    opt.kind = Kind::Fleet;
  } else {
    usage(("unknown workload '" + workload + "'").c_str());
  }
  if (opt.workDir.empty() || opt.figureOut.empty()) {
    usage("--work-dir and --figure-out are required");
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  // Timings from a debug or sanitizer build say nothing about the program.
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Debug") == 0 || kSanitized) {
    std::fprintf(stderr,
                 "perfbench: refusing to measure a %s build%s; configure "
                 "with -DCMAKE_BUILD_TYPE=RelWithDebInfo "
                 "-DONEBIT_SANITIZE=OFF\n",
                 PERFBENCH_BUILD_TYPE, kSanitized ? " with sanitizers" : "");
    return 2;
  }
  const Options opt = parseArgs(argc, argv);
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
