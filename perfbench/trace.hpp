// Span recorder for the benchmark's traced run.
//
// Spans are taken from the benchmark's own calls into the library, never
// from inside src/: each one brackets a public call (compile, workload
// construction, suite or fleet run, store load, dataset build, render).
// Spans nest by scope; each keeps its parent so self time can be derived.
// Disabled, a Span reads no clock and records nothing, which is what the
// untraced run uses. One thread only: spans are opened and closed on the
// benchmark's main thread.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/jsonl.hpp"

namespace perfbench {

inline std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  /// RAII span; closes on destruction.
  class Span {
   public:
    Span(Tracer& tracer, std::string_view name) : tracer_(tracer) {
      if (!tracer_.enabled_) return;
      index_ = static_cast<int>(tracer_.records_.size());
      tracer_.records_.push_back(
          {std::string(name), tracer_.open_, nowNs(), 0});
      tracer_.open_ = index_;
    }
    ~Span() {
      if (index_ < 0) return;
      Record& r = tracer_.records_[static_cast<std::size_t>(index_)];
      r.endNs = nowNs();
      tracer_.open_ = r.parent;
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer& tracer_;
    int index_ = -1;
  };

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Start a fresh recording (enabled or not); drops earlier spans.
  void reset(bool enabled) {
    enabled_ = enabled;
    records_.clear();
    open_ = -1;
  }

  /// Summed duration of every closed span called `name`, milliseconds.
  [[nodiscard]] double totalMs(std::string_view name) const {
    std::int64_t ns = 0;
    for (const Record& r : records_) {
      if (r.name == name) ns += r.endNs - r.startNs;
    }
    return static_cast<double>(ns) / 1e6;
  }

  /// The spans as one JSON array: name, parent, start/end relative to the
  /// first span, and self time (duration minus the children's durations).
  [[nodiscard]] onebit::util::Json toJson() const {
    std::vector<std::int64_t> childNs(records_.size(), 0);
    for (const Record& r : records_) {
      if (r.parent >= 0) {
        childNs[static_cast<std::size_t>(r.parent)] += r.endNs - r.startNs;
      }
    }
    const std::int64_t origin = records_.empty() ? 0 : records_[0].startNs;
    onebit::util::Json out = onebit::util::Json::array();
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      onebit::util::Json span = onebit::util::Json::object();
      span.set("name", onebit::util::Json::string(r.name));
      span.set("parent", onebit::util::Json::number(
                             static_cast<std::int64_t>(r.parent)));
      span.set("start_us", onebit::util::Json::number(
                               static_cast<double>(r.startNs - origin) / 1e3));
      span.set("end_us", onebit::util::Json::number(
                             static_cast<double>(r.endNs - origin) / 1e3));
      span.set("self_us",
               onebit::util::Json::number(
                   static_cast<double>(r.endNs - r.startNs - childNs[i]) /
                   1e3));
      out.push(std::move(span));
    }
    return out;
  }

 private:
  struct Record {
    std::string name;
    int parent = -1;  ///< index of the enclosing span, -1 for a root span
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
  };

  bool enabled_ = false;
  int open_ = -1;
  std::vector<Record> records_;
};

}  // namespace perfbench
