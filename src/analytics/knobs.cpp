#include "analytics/knobs.hpp"

#include <algorithm>
#include <cstdio>

#include "progs/registry.hpp"
#include "util/env.hpp"

namespace onebit::analytics {

std::uint64_t masterSeed() {
  return static_cast<std::uint64_t>(util::envInt("ONEBIT_SEED", 2017));
}

std::size_t experimentsPerCampaign(std::size_t fallback) {
  return util::envSize("ONEBIT_EXPERIMENTS", fallback);
}

bool programSelected(const std::string& name) {
  const std::string filter = util::envStr("ONEBIT_PROGRAMS", "");
  if (filter.empty()) return true;
  const std::vector<std::string> items = util::splitList(filter);
  return std::find(items.begin(), items.end(), name) != items.end();
}

std::vector<std::string> selectedPrograms() {
  std::vector<std::string> out;
  for (const auto& info : progs::allPrograms()) {
    if (programSelected(info.name)) out.push_back(info.name);
  }
  return out;
}

bool specSelected(const fi::FaultModel& model) {
  const std::string filter = util::envStr("ONEBIT_SPECS", "");
  if (filter.empty()) return true;
  for (const std::string& item : util::splitList(filter, ';')) {
    if (const auto parsed = fi::FaultModel::parse(item)) {
      if (parsed->matches(model)) return true;
    } else if (item == model.label()) {
      return true;
    }
  }
  return false;
}

unsigned flipWidth() {
  const std::int64_t width = util::envInt("ONEBIT_FLIP_WIDTH", 32);
  if (width >= 1 && width <= 64) return static_cast<unsigned>(width);
  static const bool warned = [width] {
    std::fprintf(stderr,
                 "warning: ONEBIT_FLIP_WIDTH=%lld is outside 1..64; "
                 "using 32\n",
                 static_cast<long long>(width));
    return true;
  }();
  (void)warned;
  return 32;
}

bool csvEnabled() { return util::envInt("ONEBIT_CSV", 0) != 0; }

}  // namespace onebit::analytics
