// The paper's figures (Fig. 1-5, Table III), each defined once. A renderer
// here walks its figure's campaign cells — programs, fault models, seed
// salts, experiment counts — asks a CellSource how each cell stands, and
// formats the answers into the driver's stdout. It is the only place a
// figure's seed-salt walk lives:
//   * the bench drivers (bench/fig*.cpp, through bench::runFigure) answer
//     from live campaign results: they render, run every cell the render
//     asked for and lacked, and render again until nothing new is asked
//     for — so the render IS the execution plan;
//   * `report --figure` answers from a campaign store (the Dataset
//     overload, through resolveCell), without compiling or executing
//     anything.
// The two therefore print the same bytes for the same cells by
// construction. Selection knobs (ONEBIT_SEED / ONEBIT_EXPERIMENTS /
// ONEBIT_PROGRAMS / ONEBIT_SPECS / ONEBIT_FLIP_WIDTH / ONEBIT_CSV) come from
// analytics/knobs.hpp.
//
// A cell that is only partially recorded, absent, or ambiguous is NEVER
// silently folded into a figure value: the affected table cells are
// replaced by explicit "incomplete(recorded/expected)" / "missing" /
// "ambiguous" markers, derived counts (Fig. 4's RQ2/RQ3 lines) are replaced
// by an unavailable note, cells that depend on other cells' values (Fig. 4's
// re-validation of a grid argmax) are not asked for until those are
// complete, and FigureOutput::complete() turns false (the report CLI exits
// 3). A shard-capped driver run therefore prints what `report --figure`
// prints for its store.
//
// Store resolution matches campaigns by (workload, spec label, seed,
// experiments) — the identity a shard record carries — and disambiguates
// flip-width variants (which share a spec label but have distinct campaign
// keys) through the fleet cell record's explicit flip_width when present;
// two otherwise indistinguishable candidates render as "ambiguous", never
// merged.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "analytics/dataset.hpp"
#include "fi/fault_model.hpp"

namespace onebit::analytics {

/// How the store answered for one figure campaign cell.
struct CellResolution {
  enum class State {
    Complete,   ///< every experiment recorded — exact figure value
    Partial,    ///< some shards recorded (a live or interrupted campaign)
    Missing,    ///< no matching campaign in the store
    Ambiguous,  ///< several flip-width-indistinguishable candidates
  };
  State state = State::Missing;
  stats::OutcomeCounts counts;       ///< recorded shards only
  fi::ActivationHistogram hist{};    ///< recorded shards only
  std::size_t recorded = 0;
  std::size_t expected = 0;

  [[nodiscard]] bool complete() const noexcept {
    return state == State::Complete;
  }
};

/// Resolve one campaign cell against the Dataset. `model` must carry the
/// flip width the driver applied (knobs::flipWidth()); `experiments` and
/// `seed` are the driver's resolved per-cell values.
CellResolution resolveCell(const Dataset& ds, const std::string& workload,
                           const fi::FaultModel& model, std::uint64_t seed,
                           std::size_t experiments);

/// Answers one figure cell request. `model` carries the flip width
/// (knobs::flipWidth()); `seed` and `experiments` are the cell's resolved
/// values. A renderer calls it once per cell, in the figure's walk order.
using CellSource = std::function<CellResolution(
    const std::string& workload, const fi::FaultModel& model,
    std::uint64_t seed, std::size_t experiments)>;

/// A rendered figure.
struct FigureOutput {
  std::string text;                 ///< the driver's stdout (marked up
                                    ///< where cells are incomplete)
  std::size_t cells = 0;            ///< campaign cells the figure needs
  std::size_t incompleteCells = 0;  ///< of those: partial/missing/ambiguous

  [[nodiscard]] bool complete() const noexcept {
    return incompleteCells == 0;
  }
};

/// Render figure `id` ("fig1".."fig4"; "fig5" and "table3" alias "fig4",
/// which prints all three artifacts) under the current ONEBIT_* selection
/// knobs, asking `source` for every cell. Returns nullopt for an unknown id.
std::optional<FigureOutput> renderFigure(std::string_view id,
                                         const CellSource& source);

/// renderFigure over a store: each cell is resolveCell(ds, ...).
std::optional<FigureOutput> renderFigure(std::string_view id,
                                         const Dataset& ds);

/// The known figure ids, for usage text: "fig1 fig2 fig3 fig4 (aliases:
/// fig5, table3)".
std::string_view figureIds();

}  // namespace onebit::analytics
