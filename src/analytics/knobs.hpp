// The ONEBIT_* environment knobs that SELECT what a paper artifact covers
// (seed, experiment scale, program/spec filters, flip width, CSV mode) —
// shared between the bench drivers (bench/bench_common.hpp delegates here)
// and the analytics figure renderers (analytics/figures.hpp), so `report
// --figure figN` resolves exactly the campaign cells the driver ran and the
// two can never drift apart. Execution-side knobs (threads, shard size,
// snapshots, pruning, dispatch, fleet) stay in bench_common: by the
// determinism contract they never change a result, so analytics does not
// need them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fi/fault_model.hpp"

namespace onebit::analytics {

/// ONEBIT_SEED (default 2017, the paper's year).
std::uint64_t masterSeed();

/// ONEBIT_EXPERIMENTS, defaulting to the artifact's per-figure size.
std::size_t experimentsPerCampaign(std::size_t fallback);

/// True when `name` passes the ONEBIT_PROGRAMS comma-list filter (an unset
/// or empty filter selects everything).
bool programSelected(const std::string& name);

/// The Table II program names passing ONEBIT_PROGRAMS, in registry order —
/// the row axis of every per-program figure. Derived from the registry
/// WITHOUT compiling any workload, so analytics can resolve figure cells
/// against a store in microseconds.
std::vector<std::string> selectedPrograms();

/// True when the model passes the ONEBIT_SPECS filter (an unset or empty
/// filter selects everything). The list is semicolon-separated — multi-bit
/// labels like "write/m=3,w=1" contain commas. Each item is parsed through
/// FaultModel::parse and matched as a MODEL (FaultModel::matches), not as a
/// raw string; an item that does not parse falls back to an exact label
/// comparison.
bool specSelected(const fi::FaultModel& model);

/// ONEBIT_FLIP_WIDTH (default 32 = paper-faithful; 64 = raw VM width). A
/// value outside 1..64 falls back to 32, with one warning on stderr.
unsigned flipWidth();

/// ONEBIT_CSV: emit tables as CSV instead of aligned text.
bool csvEnabled();

}  // namespace onebit::analytics
