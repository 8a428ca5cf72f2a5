// Trend reports: the same campaign cell tracked across several snapshots
// in time — store files saved at different points of a long campaign.
//
// Store trends key campaigns by campaign KEY (the 64-bit identity the
// determinism contract hashes), so a cell lines up across snapshots if and
// only if it really is the same computation; partial tallies are marked
// "(partial recorded/expected)" and never silently compared against
// complete ones.
#pragma once

#include <string>
#include <vector>

#include "util/jsonl.hpp"
#include "util/table.hpp"

namespace onebit::analytics {

/// One store file per column: per campaign key, recorded progress and SDC%
/// per snapshot, plus the SDC percentage-point delta between the first and
/// last snapshot where the cell is COMPLETE in both ("-" otherwise).
util::TextTable storeTrendTable(const std::vector<std::string>& paths);

/// The same data as JSON: {"stores": [...], "cells": [{key, workload,
/// spec, points: [{recorded, expected, complete, sdc}|null, ...]}]}.
util::Json storeTrendJson(const std::vector<std::string>& paths);

}  // namespace onebit::analytics
