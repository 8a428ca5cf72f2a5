#include "fi/campaign_store.hpp"

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <iterator>
#include <tuple>
#include <variant>

#include <sys/stat.h>

#include "stats/serialize.hpp"
#include "util/rng.hpp"

namespace onebit::fi {

namespace {

std::string keyToHex(std::uint64_t key) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64, key);
  return buf;
}

std::optional<std::uint64_t> keyFromHex(std::string_view s) {
  if (s.size() != 18 || s[0] != '0' || s[1] != 'x') return std::nullopt;
  std::uint64_t v = 0;
  for (const char c : s.substr(2)) {
    v <<= 4;
    if (c >= '0' && c <= '9') v |= static_cast<std::uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f') v |= static_cast<std::uint64_t>(c - 'a' + 10);
    else return std::nullopt;
  }
  return v;
}

util::Json histToJson(const ActivationHistogram& hist) {
  util::Json arr = util::Json::array();
  for (std::size_t o = 0; o < stats::kOutcomeCount; ++o) {
    for (std::size_t k = 0; k <= kMaxActivationBucket; ++k) {
      if (hist[o][k] == 0) continue;
      util::Json cell = util::Json::array();
      cell.push(util::Json::number(static_cast<std::uint64_t>(o)));
      cell.push(util::Json::number(static_cast<std::uint64_t>(k)));
      cell.push(util::Json::number(static_cast<std::uint64_t>(hist[o][k])));
      arr.push(std::move(cell));
    }
  }
  return arr;
}

bool histFromJson(const util::Json& value, ActivationHistogram& out) {
  if (!value.isArray()) return false;
  ActivationHistogram hist{};
  for (const util::Json& cell : value.items()) {
    const util::Json::Array& triple = cell.items();
    if (triple.size() != 3) return false;
    const std::uint64_t bad = ~0ULL;
    const std::uint64_t o = triple[0].asUint(bad);
    const std::uint64_t k = triple[1].asUint(bad);
    const std::uint64_t c = triple[2].asUint(bad);
    if (o >= stats::kOutcomeCount || k > kMaxActivationBucket || c == bad ||
        c > 0xffffffffULL) {
      return false;
    }
    hist[o][k] += static_cast<std::uint32_t>(c);
  }
  out = hist;
  return true;
}

std::uint64_t histTotal(const ActivationHistogram& hist) noexcept {
  std::uint64_t t = 0;
  for (const auto& row : hist) {
    for (const std::uint32_t c : row) t += c;
  }
  return t;
}

std::uint64_t getUint(const util::Json& obj, std::string_view field,
                      std::uint64_t fallback) {
  const util::Json* v = obj.find(field);
  return v != nullptr ? v->asUint(fallback) : fallback;
}

/// Lock-order note: the cross-process file lock (when present) is always
/// taken BEFORE the in-memory mutex, matching fleet claim sequences that
/// hold fileLock() around whole read-decide-append critical sections.
struct OptionalLockGuard {
  util::FileLock* lock;
  explicit OptionalLockGuard(util::FileLock* l) : lock(l) {
    if (lock != nullptr) lock->lock();
  }
  ~OptionalLockGuard() {
    if (lock != nullptr) lock->unlock();
  }
  OptionalLockGuard(const OptionalLockGuard&) = delete;
  OptionalLockGuard& operator=(const OptionalLockGuard&) = delete;
};

/// A file's identity: (st_dev, st_ino).
using FileId = std::pair<std::uint64_t, std::uint64_t>;

/// The identity and size of the file at `path`; zeros when it is missing.
std::pair<FileId, std::uint64_t> fileStateOf(const std::string& path) {
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0) return {};
  return {{static_cast<std::uint64_t>(st.st_dev),
           static_cast<std::uint64_t>(st.st_ino)},
          static_cast<std::uint64_t>(st.st_size)};
}

}  // namespace

std::uint64_t CampaignStore::campaignKey(
    const FaultModel& model, std::size_t experiments, std::uint64_t seed,
    std::uint64_t workloadFingerprint) noexcept {
  // Chain every field the determinism contract names; any difference in the
  // fault model, campaign size, seed, workload behavior, or experiment
  // semantics yields a new key. Paper cells (register domains under the
  // single/temporal patterns) hash the exact chain the former FaultSpec key
  // used, so every record written before the FaultModel redesign still
  // resumes; extension cells additionally fold in their own semantics
  // version and the pattern kind, so they can never collide with a paper
  // key and can be re-versioned independently.
  std::uint64_t h = 0x0b17c4a9'5708e11fULL ^ kFormatVersion;
  h = util::hashCombine(h, kResultSemanticsVersion);
  h = util::hashCombine(h, static_cast<std::uint64_t>(model.domain));
  h = util::hashCombine(h, model.pattern.count);
  h = util::hashCombine(h, static_cast<std::uint64_t>(model.spread.kind));
  h = util::hashCombine(h, model.spread.value);
  h = util::hashCombine(h, model.spread.lo);
  h = util::hashCombine(h, model.spread.hi);
  h = util::hashCombine(h, model.flipWidth);
  if (!model.isPaperModel()) {
    h = util::hashCombine(h, kExtendedSemanticsVersion);
    h = util::hashCombine(h, static_cast<std::uint64_t>(model.pattern.kind));
  }
  h = util::hashCombine(h, static_cast<std::uint64_t>(experiments));
  h = util::hashCombine(h, seed);
  h = util::hashCombine(h, workloadFingerprint);
  return h;
}

std::uint64_t CampaignStore::outcomeCacheKey(
    std::uint64_t campaignKey) noexcept {
  return util::hashCombine(
      util::hashCombine(0x0b17'0c0d'e11f'ca5eULL, kPruneSemanticsVersion),
      campaignKey);
}

namespace {

using Snapshot = CampaignStore::Snapshot;
using Range = CampaignStore::Range;

/// One parsed store line. Besides the six record kinds, a line is either of
/// an unknown kind or foreign version (possibly a later format), or invalid
/// (it parses as JSON but fails its kind's validation).
struct ShardLine {
  CampaignStore::CampaignMeta meta;  ///< meta.key is the campaign key
  Range range;
  CampaignStore::ShardAggregate agg;
};
struct OutcomeLine {
  std::uint64_t key = 0;  ///< outcome-cache key
  CampaignStore::OutcomeRecord rec;
};
struct LeaseLine {
  std::uint64_t key = 0;
  CampaignStore::LeaseRecord rec;
};
struct QuarantineLine {
  std::uint64_t key = 0;
  CampaignStore::QuarantineRecord rec;
};
struct UnknownLine {};
struct InvalidLine {};
using Record =
    std::variant<InvalidLine, UnknownLine, ShardLine,
                 CampaignStore::WorkloadRecord, OutcomeLine,
                 CampaignStore::CellRecord, LeaseLine, QuarantineLine>;

/// LoadStats' accepted-record counter of each Record alternative.
constexpr std::size_t CampaignStore::LoadStats::*kAccepted[] = {
    nullptr,
    nullptr,
    &CampaignStore::LoadStats::shardRecords,
    &CampaignStore::LoadStats::workloadRecords,
    &CampaignStore::LoadStats::outcomeRecords,
    &CampaignStore::LoadStats::cellRecords,
    &CampaignStore::LoadStats::leaseRecords,
    &CampaignStore::LoadStats::quarantineRecords};
static_assert(std::size(kAccepted) == std::variant_size_v<Record>);

std::optional<std::uint64_t> hexField(const util::Json& record,
                                      std::string_view field) {
  const util::Json* f = record.find(field);
  return f != nullptr ? keyFromHex(f->asString()) : std::nullopt;
}

std::string stringField(const util::Json& record, std::string_view field) {
  const util::Json* f = record.find(field);
  return f != nullptr ? std::string(f->asString()) : std::string();
}

/// Decode a "shard" record. Integrity: the shard range must lie inside the
/// campaign and both aggregates must tally exactly `count` experiments — a
/// mangled record is worth less than a re-run shard.
Record parseShard(const util::Json& record) {
  const std::optional<std::uint64_t> key = hexField(record, "key");
  const std::uint64_t bad = ~0ULL;
  const std::uint64_t first = getUint(record, "first", bad);
  const std::uint64_t count = getUint(record, "count", bad);
  const std::uint64_t experiments = getUint(record, "experiments", bad);
  const util::Json* outcomes = record.find("outcomes");
  const util::Json* hist = record.find("hist");
  ShardLine out;
  // The range test is written so it cannot wrap: `first + count` overflows
  // for a `first` near 2^64 and would pass a shard lying outside the
  // campaign.
  if (!key || first == bad || count == bad || count == 0 ||
      experiments == bad || count > experiments ||
      first > experiments - count || outcomes == nullptr ||
      !stats::fromJson(*outcomes, out.agg.counts) || hist == nullptr ||
      !histFromJson(*hist, out.agg.hist) ||
      out.agg.counts.total() != count || histTotal(out.agg.hist) != count) {
    return InvalidLine{};
  }
  out.range = {static_cast<std::size_t>(first),
               static_cast<std::size_t>(count)};
  out.meta.key = *key;
  out.meta.workload = stringField(record, "workload");
  out.meta.specLabel = stringField(record, "spec");
  out.meta.seed = hexField(record, "seed").value_or(0);
  out.meta.experiments = static_cast<std::size_t>(experiments);
  out.meta.candidates = getUint(record, "candidates", 0);
  return out;
}

/// Decode a "workload" record (only the name is mandatory).
Record parseWorkload(const util::Json& record) {
  CampaignStore::WorkloadRecord rec;
  rec.name = stringField(record, "name");
  if (rec.name.empty()) return InvalidLine{};
  rec.suite = stringField(record, "suite");
  rec.package = stringField(record, "package");
  rec.sourceHash = hexField(record, "src_hash").value_or(0);
  rec.minicLoc = getUint(record, "minic_loc", 0);
  rec.irInstrs = getUint(record, "ir_instrs", 0);
  rec.dynInstrs = getUint(record, "dyn_instrs", 0);
  rec.candRead = getUint(record, "cand_read", 0);
  rec.candWrite = getUint(record, "cand_write", 0);
  rec.candStore = getUint(record, "cand_store", 0);
  return rec;
}

/// Decode an "outcome" record. The enums are range-checked: a record whose
/// outcome or trap no longer decodes would replay garbage into results.
Record parseOutcome(const util::Json& record) {
  const std::optional<std::uint64_t> key = hexField(record, "key");
  const std::optional<std::uint64_t> hash = hexField(record, "hash");
  const std::uint64_t bad = ~0ULL;
  const std::uint64_t boundary = getUint(record, "boundary", bad);
  const std::uint64_t outcome = getUint(record, "outcome", bad);
  const std::uint64_t trap = getUint(record, "trap", bad);
  const std::uint64_t instructions = getUint(record, "instructions", bad);
  if (!key || !hash || boundary == bad || boundary == 0 ||
      outcome >= stats::kOutcomeCount ||
      trap > static_cast<std::uint64_t>(vm::TrapKind::Abort) ||
      instructions == bad) {
    return InvalidLine{};
  }
  return OutcomeLine{*key,
                     {boundary, *hash, static_cast<stats::Outcome>(outcome),
                      static_cast<vm::TrapKind>(trap), instructions}};
}

/// Decode a "cell" record. A cell a worker cannot fully reconstruct
/// (missing name/spec/geometry) is worthless, so everything but the two
/// advisory fields (hang_factor, dyn_instrs) is mandatory.
Record parseCell(const util::Json& record) {
  const std::optional<std::uint64_t> key = hexField(record, "key");
  const std::optional<std::uint64_t> seed = hexField(record, "seed");
  const std::uint64_t bad = ~0ULL;
  const std::uint64_t flipWidth = getUint(record, "flip_width", bad);
  const std::uint64_t experiments = getUint(record, "experiments", bad);
  const std::uint64_t shardSize = getUint(record, "shard_size", bad);
  CampaignStore::CellRecord rec;
  rec.workload = stringField(record, "workload");
  rec.spec = stringField(record, "spec");
  if (!key || !seed || rec.workload.empty() || rec.spec.empty() ||
      flipWidth == 0 || flipWidth > 64 || experiments == 0 ||
      experiments == bad || shardSize == 0 || shardSize == bad) {
    return InvalidLine{};
  }
  rec.key = *key;
  rec.flipWidth = static_cast<unsigned>(flipWidth);
  rec.experiments = static_cast<std::size_t>(experiments);
  rec.seed = *seed;
  rec.shardSize = static_cast<std::size_t>(shardSize);
  rec.hangFactor = getUint(record, "hang_factor", 0);
  rec.dynInstrs = getUint(record, "dyn_instrs", 0);
  return rec;
}

Record parseLease(const util::Json& record) {
  const std::optional<std::uint64_t> key = hexField(record, "key");
  const std::uint64_t bad = ~0ULL;
  const std::uint64_t first = getUint(record, "first", bad);
  const std::uint64_t count = getUint(record, "count", bad);
  const std::uint64_t epoch = getUint(record, "epoch", bad);
  const std::uint64_t deadline = getUint(record, "deadline", bad);
  LeaseLine out;
  out.rec.worker = stringField(record, "worker");
  if (!key || out.rec.worker.empty() || first == bad || count == 0 ||
      count == bad || epoch == 0 || epoch == bad || deadline == bad) {
    return InvalidLine{};
  }
  out.key = *key;
  out.rec.first = static_cast<std::size_t>(first);
  out.rec.count = static_cast<std::size_t>(count);
  out.rec.epoch = epoch;
  out.rec.deadlineMs = deadline;
  out.rec.costMs = getUint(record, "cost_ms", 0);  // optional: completions
  return out;
}

Record parseQuarantine(const util::Json& record) {
  const std::optional<std::uint64_t> key = hexField(record, "key");
  const std::uint64_t bad = ~0ULL;
  const std::uint64_t first = getUint(record, "first", bad);
  const std::uint64_t count = getUint(record, "count", bad);
  if (!key || first == bad || count == 0 || count == bad) {
    return InvalidLine{};
  }
  QuarantineLine out;
  out.key = *key;
  out.rec.first = static_cast<std::size_t>(first);
  out.rec.count = static_cast<std::size_t>(count);
  out.rec.crashes = getUint(record, "crashes", 0);
  out.rec.worker = stringField(record, "worker");
  out.rec.reason = stringField(record, "reason");
  return out;
}

/// Parse and validate one store line: the store's only dispatch on the
/// record kind.
Record parseRecord(const util::Json& record) {
  const util::Json* kind = record.find("kind");
  if (getUint(record, "v", 0) != CampaignStore::kFormatVersion ||
      kind == nullptr) {
    return UnknownLine{};
  }
  const std::string_view k = kind->asString();
  if (k == "shard") return parseShard(record);
  if (k == "workload") return parseWorkload(record);
  if (k == "outcome") return parseOutcome(record);
  if (k == "cell") return parseCell(record);
  if (k == "lease") return parseLease(record);
  if (k == "quarantine") return parseQuarantine(record);
  return UnknownLine{};
}

// The record-precedence rule: which of two records with one identity the
// index holds. docs/ARCHITECTURE.md ("Record precedence") tabulates it.

/// What folding one record into an index did.
enum class Fold {
  Taken,    ///< the index now holds this record for its identity
  Repeat,   ///< a first-wins identity (shard, outcome) was already held
  Ignored,  ///< a newest-wins record that changes nothing: identical to the
            ///< held one, or a lease of a stale epoch
};

Snapshot::Campaign& campaignAt(Snapshot& index, std::uint64_t key) {
  Snapshot::Campaign& c = index.campaigns[key];
  c.meta.key = key;
  return c;
}

/// Shards: first wins — by the determinism contract a re-record carries the
/// same aggregates, and keep-first makes replays idempotent. A campaign's
/// meta comes from its first shard record.
Fold fold(Snapshot& index, const ShardLine& r) {
  Snapshot::Campaign& c = campaignAt(index, r.meta.key);
  if (c.meta.experiments == 0) c.meta = r.meta;
  return c.shards.try_emplace(r.range, r.agg).second ? Fold::Taken
                                                     : Fold::Repeat;
}

/// Workloads: newest wins; every record replaces the held one.
Fold fold(Snapshot& index, const CampaignStore::WorkloadRecord& rec) {
  index.workloads.insert_or_assign(rec.name, rec);
  return Fold::Taken;
}

/// Outcome-cache entries: first wins (values are functions of their key).
Fold fold(Snapshot& index, const OutcomeLine& r) {
  return index.outcomes[r.key]
                 .try_emplace({r.rec.boundary, r.rec.hash}, r.rec)
                 .second
             ? Fold::Taken
             : Fold::Repeat;
}

/// Cells: newest wins (the key binds every result-relevant field, so a
/// difference is scheduling metadata); a key keeps its first-submission
/// position in cellOrder.
Fold fold(Snapshot& index, const CampaignStore::CellRecord& rec) {
  Snapshot::Campaign& c = campaignAt(index, rec.key);
  if (c.cell == rec) return Fold::Ignored;
  if (!c.cell) index.cellOrder.push_back(rec.key);
  c.cell = rec;
  return Fold::Taken;
}

/// Leases: the highest epoch wins, and within an epoch the latest record
/// (renewals are appended in time order); a stale epoch is ignored.
Fold fold(Snapshot& index, const LeaseLine& r) {
  const auto [it, inserted] = campaignAt(index, r.key).leases.try_emplace(
      Range{r.rec.first, r.rec.count}, r.rec);
  if (inserted) return Fold::Taken;
  if (r.rec.epoch < it->second.epoch || it->second == r.rec) {
    return Fold::Ignored;
  }
  it->second = r.rec;
  return Fold::Taken;
}

/// Quarantines: newest wins (a re-quarantine bumps the crash count).
Fold fold(Snapshot& index, const QuarantineLine& r) {
  const auto [it, inserted] = campaignAt(index, r.key).quarantines.try_emplace(
      Range{r.rec.first, r.rec.count}, r.rec);
  if (inserted) return Fold::Taken;
  if (it->second == r.rec) return Fold::Ignored;
  it->second = r.rec;
  return Fold::Taken;
}

Fold fold(Snapshot&, InvalidLine) { return Fold::Ignored; }
Fold fold(Snapshot&, UnknownLine) { return Fold::Ignored; }

Fold foldRecord(Snapshot& index, const Record& record) {
  return std::visit([&](const auto& r) { return fold(index, r); }, record);
}

/// A record's identity — records with equal identities compete for one
/// entry of the index: (kind tag, key, range or (boundary, hash), name).
using Identity = std::tuple<char, std::uint64_t, std::uint64_t,
                            std::uint64_t, std::string>;

Identity rangeIdentity(char tag, std::uint64_t key, const Range& range) {
  return {tag, key, range.first, range.second, {}};
}
Identity identity(const ShardLine& r) {
  return rangeIdentity('s', r.meta.key, r.range);
}
Identity identity(const CampaignStore::WorkloadRecord& r) {
  return {'w', 0, 0, 0, r.name};
}
Identity identity(const OutcomeLine& r) {
  return {'o', r.key, r.rec.boundary, r.rec.hash, {}};
}
Identity identity(const CampaignStore::CellRecord& r) {
  return {'c', r.key, 0, 0, {}};
}
Identity identity(const LeaseLine& r) {
  return rangeIdentity('l', r.key, {r.rec.first, r.rec.count});
}
Identity identity(const QuarantineLine& r) {
  return rangeIdentity('q', r.key, {r.rec.first, r.rec.count});
}
Identity identity(InvalidLine) { return {}; }
Identity identity(UnknownLine) { return {}; }

util::Json cellToJson(const CampaignStore::CellRecord& rec) {
  util::Json record = util::Json::object();
  record.set("v", util::Json::number(CampaignStore::kFormatVersion));
  record.set("kind", util::Json::string("cell"));
  record.set("key", util::Json::string(keyToHex(rec.key)));
  record.set("workload", util::Json::string(rec.workload));
  record.set("spec", util::Json::string(rec.spec));
  record.set("flip_width",
             util::Json::number(static_cast<std::uint64_t>(rec.flipWidth)));
  record.set("experiments",
             util::Json::number(static_cast<std::uint64_t>(rec.experiments)));
  record.set("seed", util::Json::string(keyToHex(rec.seed)));
  record.set("shard_size",
             util::Json::number(static_cast<std::uint64_t>(rec.shardSize)));
  record.set("hang_factor", util::Json::number(rec.hangFactor));
  record.set("dyn_instrs", util::Json::number(rec.dynInstrs));
  return record;
}

util::Json leaseToJson(std::uint64_t key,
                       const CampaignStore::LeaseRecord& rec) {
  util::Json record = util::Json::object();
  record.set("v", util::Json::number(CampaignStore::kFormatVersion));
  record.set("kind", util::Json::string("lease"));
  record.set("key", util::Json::string(keyToHex(key)));
  record.set("first",
             util::Json::number(static_cast<std::uint64_t>(rec.first)));
  record.set("count",
             util::Json::number(static_cast<std::uint64_t>(rec.count)));
  record.set("worker", util::Json::string(rec.worker));
  record.set("epoch", util::Json::number(rec.epoch));
  record.set("deadline", util::Json::number(rec.deadlineMs));
  if (rec.costMs != 0) {
    record.set("cost_ms", util::Json::number(rec.costMs));
  }
  return record;
}

util::Json quarantineToJson(std::uint64_t key,
                            const CampaignStore::QuarantineRecord& rec) {
  util::Json record = util::Json::object();
  record.set("v", util::Json::number(CampaignStore::kFormatVersion));
  record.set("kind", util::Json::string("quarantine"));
  record.set("key", util::Json::string(keyToHex(key)));
  record.set("first",
             util::Json::number(static_cast<std::uint64_t>(rec.first)));
  record.set("count",
             util::Json::number(static_cast<std::uint64_t>(rec.count)));
  record.set("crashes", util::Json::number(rec.crashes));
  if (!rec.worker.empty()) {
    record.set("worker", util::Json::string(rec.worker));
  }
  if (!rec.reason.empty()) {
    record.set("reason", util::Json::string(rec.reason));
  }
  return record;
}

}  // namespace

CampaignStore::LoadStats CampaignStore::load() {
  OptionalLockGuard fileGuard(fileLock_.get());
  std::lock_guard lock(mutex_);
  clearIndex();
  readFile_ = fileStateOf(path_).first;
  return readInto(0, /*consumeTail=*/true);
}

CampaignStore::LoadStats CampaignStore::refresh() {
  OptionalLockGuard fileGuard(fileLock_.get());
  std::lock_guard lock(mutex_);
  // Another file under our path (compaction renames its rewrite into
  // place), or one smaller than the resume point: the offset is
  // meaningless, so re-read from scratch. The identity is taken before the
  // read, so a swap racing the read is caught by the next refresh.
  const auto [file, size] = fileStateOf(path_);
  if (file != readFile_ || size < readOffset_) {
    clearIndex();
    readFile_ = file;
    return readInto(0, /*consumeTail=*/false);
  }
  return readInto(readOffset_, /*consumeTail=*/false);
}

void CampaignStore::clearIndex() {
  index_ = {};
  readOffset_ = 0;
}

CampaignStore::LoadStats CampaignStore::readInto(std::uint64_t offset,
                                                 bool consumeTail) {
  LoadStats stats;
  const util::JsonlReadStats read = util::readJsonlFrom(
      path_, offset, consumeTail, [&](util::Json&& json) {
        const Record record = parseRecord(json);
        if (std::holds_alternative<InvalidLine>(record)) {
          ++stats.malformed;
        } else if (std::holds_alternative<UnknownLine>(record)) {
          ++stats.malformed;
          ++stats.unknownKinds;
        } else if (foldRecord(index_, record) == Fold::Taken) {
          ++(stats.*kAccepted[record.index()]);
        } else {
          ++stats.duplicates;
        }
      });
  stats.malformed += read.malformed;
  readOffset_ = read.endOffset;
  return stats;
}

namespace {

/// Raw line split of a store file, preserving bytes exactly (fsck must keep
/// surviving lines byte-identical, so it cannot round-trip through Json).
struct RawLines {
  std::vector<std::string> lines;
  bool lastTerminated = true;  ///< final line ended with '\n'
  bool missing = false;
};

RawLines readRawLines(const std::string& path) {
  RawLines out;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    out.missing = true;
    return out;
  }
  std::string line;
  int c = 0;
  while ((c = std::fgetc(f)) != EOF) {
    if (c == '\n') {
      out.lines.push_back(line);
      line.clear();
      out.lastTerminated = true;
    } else {
      line += static_cast<char>(c);
      out.lastTerminated = false;
    }
  }
  if (!line.empty()) out.lines.push_back(std::move(line));
  std::fclose(f);
  return out;
}

bool writeRawLines(const std::string& path, const char* mode,
                   const std::vector<const std::string*>& lines) {
  std::FILE* f = std::fopen(path.c_str(), mode);
  if (f == nullptr) return false;
  bool ok = true;
  for (const std::string* line : lines) {
    if (std::fwrite(line->data(), 1, line->size(), f) != line->size() ||
        std::fputc('\n', f) == EOF) {
      ok = false;
      break;
    }
  }
  if (std::fflush(f) != 0) ok = false;
  std::fclose(f);
  return ok;
}


/// A store file's lines folded through the index in file order — the one
/// read compact() and fsck() share. Every record identity, and every line
/// of an unknown kind, owns a slot in first-seen order; a slot names the
/// line of the record the index holds for it.
struct FoldedLines {
  /// What one raw line turned out to be.
  struct Line {
    enum class Is { Empty, Unparseable, Invalid, Unknown, Record } is =
        Is::Empty;
    Fold fold = Fold::Taken;  ///< (Record)
    char tag = 0;             ///< identity kind tag (Record)
    std::size_t slot = 0;     ///< (Record, Unknown)
  };

  Snapshot index;
  std::vector<Line> lines;            ///< one per raw line
  std::vector<std::size_t> slots;     ///< slot → held raw line
  std::map<Identity, std::size_t> slotOf;

  explicit FoldedLines(const RawLines& raw) : lines(raw.lines.size()) {
    for (std::size_t i = 0; i < raw.lines.size(); ++i) {
      Line& line = lines[i];
      if (raw.lines[i].empty()) continue;  // torn-tail healing residue
      const std::optional<util::Json> json = util::Json::parse(raw.lines[i]);
      if (!json) {
        line.is = Line::Is::Unparseable;
        continue;
      }
      const Record record = parseRecord(*json);
      if (std::holds_alternative<InvalidLine>(record)) {
        line.is = Line::Is::Invalid;
        continue;
      }
      if (std::holds_alternative<UnknownLine>(record)) {
        line.is = Line::Is::Unknown;
        line.slot = slots.size();
        slots.push_back(i);
        continue;
      }
      line.is = Line::Is::Record;
      line.fold = foldRecord(index, record);
      Identity id =
          std::visit([](const auto& r) { return identity(r); }, record);
      line.tag = std::get<0>(id);
      const auto [it, fresh] = slotOf.try_emplace(std::move(id), slots.size());
      if (fresh) {
        slots.push_back(i);
      } else if (line.fold == Fold::Taken) {
        slots[it->second] = i;
      }
      line.slot = it->second;
    }
  }
};

}  // namespace

std::optional<CampaignStore::CompactStats> CampaignStore::compact(
    const std::string& path, std::uint64_t nowMs) {
  CompactStats stats;
  const RawLines raw = readRawLines(path);
  FoldedLines folded(raw);
  std::size_t leaseLines = 0;
  std::size_t quarantineLines = 0;
  std::size_t otherLines = 0;
  for (const FoldedLines::Line& line : folded.lines) {
    switch (line.is) {
      case FoldedLines::Line::Is::Empty:
        break;
      case FoldedLines::Line::Is::Unparseable:
      case FoldedLines::Line::Is::Invalid:
        ++stats.droppedMalformed;
        break;
      case FoldedLines::Line::Is::Unknown:
        ++stats.unknownKinds;
        break;
      case FoldedLines::Line::Is::Record:
        ++(line.tag == 'l'   ? leaseLines
           : line.tag == 'q' ? quarantineLines
                             : otherLines);
        break;
    }
  }
  // A lease is done once a shard record for its range exists and abandoned
  // once its deadline passed (when the caller supplied a clock); a
  // quarantine is moot once the range got recorded after all (a --force
  // pass, or a fixed workload). Their slots are voided, the rest kept.
  constexpr std::size_t kVoid = ~std::size_t{0};
  for (const auto& [key, c] : folded.index.campaigns) {
    stats.shardRecords += c.shards.size();
    for (const auto& [range, lease] : c.leases) {
      if (c.shards.count(range) != 0 ||
          (nowMs != 0 && lease.deadlineMs <= nowMs)) {
        folded.slots[folded.slotOf.at(rangeIdentity('l', key, range))] =
            kVoid;
      } else {
        ++stats.leaseRecords;
      }
    }
    for (const auto& [range, quarantine] : c.quarantines) {
      if (c.shards.count(range) != 0) {
        folded.slots[folded.slotOf.at(rangeIdentity('q', key, range))] =
            kVoid;
      } else {
        ++stats.quarantineRecords;
      }
    }
  }
  stats.workloadRecords = folded.index.workloads.size();
  for (const auto& [key, entries] : folded.index.outcomes) {
    stats.outcomeRecords += entries.size();
  }
  stats.cellRecords = folded.index.cellOrder.size();
  stats.droppedDuplicates = otherLines - stats.shardRecords -
                            stats.workloadRecords - stats.outcomeRecords -
                            stats.cellRecords;
  stats.droppedLeases = leaseLines - stats.leaseRecords;
  stats.droppedQuarantines = quarantineLines - stats.quarantineRecords;
  // Already canonical (including the missing-file case): leave the file
  // byte-identical instead of rewriting it.
  if (stats.droppedDuplicates == 0 && stats.droppedMalformed == 0 &&
      stats.droppedLeases == 0 && stats.droppedQuarantines == 0) {
    return stats;
  }
  // Crash-safe rewrite: write a sibling temp file, then rename over the
  // original — a reader never observes a half-written store. The temp is
  // truncated, so a stale one left by a killed compaction cannot leak
  // superseded records back in.
  std::vector<const std::string*> kept;
  kept.reserve(folded.slots.size());
  for (const std::size_t i : folded.slots) {
    if (i != kVoid) kept.push_back(&raw.lines[i]);
  }
  const std::string tmp = path + ".compact.tmp";
  if (!writeRawLines(tmp, "wb", kept) ||
      std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return std::nullopt;
  }
  stats.rewritten = true;
  return stats;
}

std::optional<CampaignStore::FsckStats> CampaignStore::fsck(
    const std::string& path, bool repair) {
  FsckStats stats;
  const RawLines raw = readRawLines(path);
  if (raw.missing) return stats;  // missing file: clean and empty

  const FoldedLines folded(raw);
  std::vector<std::size_t> kept;         ///< surviving line indices
  std::vector<std::size_t> quarantined;  ///< sidecar-bound line indices
  for (std::size_t i = 0; i < raw.lines.size(); ++i) {
    const FoldedLines::Line& line = folded.lines[i];
    switch (line.is) {
      case FoldedLines::Line::Is::Empty:
        break;
      case FoldedLines::Line::Is::Unparseable:
        // The unterminated final line is the classic torn write of a
        // killed process; anything earlier is real mid-file damage.
        if (i + 1 == raw.lines.size() && !raw.lastTerminated) {
          ++stats.tornTail;
        } else {
          ++stats.garbage;
        }
        quarantined.push_back(i);
        break;
      case FoldedLines::Line::Is::Invalid:
        // Parses as JSON but fails the kind's validation — a mangled (e.g.
        // byte-flipped) record. load() skips it; repair quarantines it.
        ++stats.integrityFailures;
        quarantined.push_back(i);
        break;
      case FoldedLines::Line::Is::Unknown:
        ++stats.unknownKinds;  // possibly a later format: kept verbatim
        kept.push_back(i);
        break;
      case FoldedLines::Line::Is::Record:
        if (line.fold != Fold::Repeat) {
          // Newest-wins kinds are legitimately re-appended with new
          // content, so every one of their lines is kept.
          ++stats.validRecords;
          kept.push_back(i);
        } else if (raw.lines[folded.slots[line.slot]] == raw.lines[i]) {
          ++stats.duplicateLines;  // benign cross-process re-record
        } else {
          // Same identity, different bytes: the determinism contract says
          // this cannot happen to an intact store. Keep the first record
          // (what load() indexes) and quarantine the imposter.
          ++stats.conflicts;
          quarantined.push_back(i);
        }
        break;
    }
  }
  stats.quarantinedLines = quarantined.size();

  if (!repair || stats.clean()) return stats;

  // Quarantine sidecar first (append — successive fscks accumulate), then
  // the crash-safe rewrite: surviving lines byte-identical, temp + rename.
  const auto linesAt = [&raw](const std::vector<std::size_t>& at) {
    std::vector<const std::string*> lines;
    lines.reserve(at.size());
    for (const std::size_t i : at) lines.push_back(&raw.lines[i]);
    return lines;
  };
  if (!quarantined.empty() &&
      !writeRawLines(path + ".quarantined", "ab", linesAt(quarantined))) {
    return std::nullopt;
  }
  const std::string tmp = path + ".fsck.tmp";
  if (!writeRawLines(tmp, "wb", linesAt(kept)) ||
      std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return std::nullopt;
  }
  stats.rewritten = true;
  return stats;
}

bool CampaignStore::writeRecord(const util::Json& record) {
  // Callers hold mutex_ (and, in Atomic mode, the file lock — taken first).
  bool ok = false;
  int err = 0;
  if (mode_ == WriteMode::Atomic) {
    if (appender_ == nullptr) {
      appender_ = std::make_unique<util::AtomicAppend>(path_);
    }
    ok = appender_->appendLine(record.dump());
    err = appender_->lastErrno();
  } else {
    if (writer_ == nullptr) {
      writer_ = std::make_unique<util::JsonlWriter>(path_);
    }
    ok = writer_->writeLine(record);
    err = writer_->lastErrno();
  }
  lastWriteErrno_.store(ok ? 0 : err, std::memory_order_relaxed);
  return ok;
}

bool CampaignStore::lastWriteOutOfSpace() const noexcept {
  const int err = lastWriteErrno_.load(std::memory_order_relaxed);
#if defined(EDQUOT)
  return err == ENOSPC || err == EDQUOT;
#else
  return err == ENOSPC;
#endif
}


bool CampaignStore::appendShard(const CampaignMeta& meta,
                                std::size_t shardIndex,
                                std::size_t firstExperiment,
                                std::size_t experimentCount,
                                const ShardAggregate& aggregate) {
  util::Json record = util::Json::object();
  record.set("v", util::Json::number(kFormatVersion));
  record.set("kind", util::Json::string("shard"));
  record.set("key", util::Json::string(keyToHex(meta.key)));
  if (!meta.workload.empty()) {
    record.set("workload", util::Json::string(meta.workload));
  }
  record.set("spec", util::Json::string(meta.specLabel));
  // Full-range 64-bit fields go as hex strings (like `key`): a raw JSON
  // number above 2^53 would be silently rounded by double-based consumers
  // (jq, JS) the store is meant to feed.
  record.set("seed", util::Json::string(keyToHex(meta.seed)));
  record.set("experiments",
             util::Json::number(static_cast<std::uint64_t>(meta.experiments)));
  record.set("candidates", util::Json::number(meta.candidates));
  record.set("shard",
             util::Json::number(static_cast<std::uint64_t>(shardIndex)));
  record.set("first",
             util::Json::number(static_cast<std::uint64_t>(firstExperiment)));
  record.set("count",
             util::Json::number(static_cast<std::uint64_t>(experimentCount)));
  record.set("outcomes", stats::toJson(aggregate.counts));
  record.set("hist", histToJson(aggregate.hist));

  const Range range{firstExperiment, experimentCount};
  OptionalLockGuard fileGuard(fileLock_.get());
  std::lock_guard lock(mutex_);
  // Known already (loaded from disk or appended via this instance): the
  // record on file is identical by the determinism contract — skip the
  // write so record-only reruns keep the store canonical.
  const Snapshot::Campaign* c = campaign(meta.key);
  if (c != nullptr && c->shards.count(range) != 0) return true;
  if (!writeRecord(record)) return false;
  fold(index_, ShardLine{meta, range, aggregate});
  return true;
}

bool CampaignStore::appendWorkload(const WorkloadRecord& rec) {
  util::Json record = util::Json::object();
  record.set("v", util::Json::number(kFormatVersion));
  record.set("kind", util::Json::string("workload"));
  record.set("name", util::Json::string(rec.name));
  record.set("suite", util::Json::string(rec.suite));
  record.set("package", util::Json::string(rec.package));
  record.set("src_hash", util::Json::string(keyToHex(rec.sourceHash)));
  record.set("minic_loc", util::Json::number(rec.minicLoc));
  record.set("ir_instrs", util::Json::number(rec.irInstrs));
  record.set("dyn_instrs", util::Json::number(rec.dynInstrs));
  record.set("cand_read", util::Json::number(rec.candRead));
  record.set("cand_write", util::Json::number(rec.candWrite));
  record.set("cand_store", util::Json::number(rec.candStore));

  OptionalLockGuard fileGuard(fileLock_.get());
  std::lock_guard lock(mutex_);
  const auto existing = index_.workloads.find(rec.name);
  if (existing != index_.workloads.end() && existing->second == rec) {
    return true;  // identical record already on file
  }
  if (!writeRecord(record)) return false;
  fold(index_, rec);
  return true;
}

bool CampaignStore::appendOutcome(std::uint64_t cacheKey,
                                  const OutcomeRecord& rec) {
  util::Json record = util::Json::object();
  record.set("v", util::Json::number(kFormatVersion));
  record.set("kind", util::Json::string("outcome"));
  record.set("key", util::Json::string(keyToHex(cacheKey)));
  record.set("boundary", util::Json::number(rec.boundary));
  record.set("hash", util::Json::string(keyToHex(rec.hash)));
  record.set("outcome", util::Json::number(
                            static_cast<std::uint64_t>(rec.outcome)));
  record.set("trap",
             util::Json::number(static_cast<std::uint64_t>(rec.trap)));
  record.set("instructions", util::Json::number(rec.instructions));

  OptionalLockGuard fileGuard(fileLock_.get());
  std::lock_guard lock(mutex_);
  const auto cache = index_.outcomes.find(cacheKey);
  if (cache != index_.outcomes.end() &&
      cache->second.count({rec.boundary, rec.hash}) != 0) {
    return true;  // already on file; entry values are key-determined
  }
  if (!writeRecord(record)) return false;
  fold(index_, OutcomeLine{cacheKey, rec});
  return true;
}

bool CampaignStore::appendCell(const CellRecord& rec) {
  if (rec.experiments == 0 || rec.shardSize == 0 || rec.workload.empty() ||
      rec.spec.empty() || rec.flipWidth == 0 || rec.flipWidth > 64) {
    return false;  // a worker could not reconstruct this cell
  }
  const util::Json record = cellToJson(rec);
  OptionalLockGuard fileGuard(fileLock_.get());
  std::lock_guard lock(mutex_);
  const Snapshot::Campaign* c = campaign(rec.key);
  if (c != nullptr && c->cell == rec) {
    return true;  // identical submission already on file
  }
  if (!writeRecord(record)) return false;
  fold(index_, rec);
  return true;
}

namespace {

/// The record `held` indexes for (first, count), or nullptr.
template <class Rec>
const Rec* heldAt(const std::map<Range, Rec>& held, std::size_t first,
                  std::size_t count) {
  const auto it = held.find(Range{first, count});
  return it != held.end() ? &it->second : nullptr;
}

template <class Rec>
std::vector<Rec> valuesOf(const std::map<Range, Rec>& held) {
  std::vector<Rec> out;
  out.reserve(held.size());
  for (const auto& [range, rec] : held) out.push_back(rec);
  return out;
}

}  // namespace

bool CampaignStore::appendLease(std::uint64_t key, const LeaseRecord& rec) {
  if (rec.count == 0 || rec.epoch == 0 || rec.worker.empty()) return false;
  const util::Json record = leaseToJson(key, rec);
  OptionalLockGuard fileGuard(fileLock_.get());
  std::lock_guard lock(mutex_);
  const Snapshot::Campaign* c = campaign(key);
  const LeaseRecord* live =
      c != nullptr ? heldAt(c->leases, rec.first, rec.count) : nullptr;
  if (live != nullptr && *live == rec) {
    return true;  // identical lease already the live one
  }
  if (!writeRecord(record)) return false;
  fold(index_, LeaseLine{key, rec});
  return true;
}

bool CampaignStore::appendQuarantine(std::uint64_t key,
                                     const QuarantineRecord& rec) {
  if (rec.count == 0) return false;
  const util::Json record = quarantineToJson(key, rec);
  OptionalLockGuard fileGuard(fileLock_.get());
  std::lock_guard lock(mutex_);
  const Snapshot::Campaign* c = campaign(key);
  const QuarantineRecord* live =
      c != nullptr ? heldAt(c->quarantines, rec.first, rec.count) : nullptr;
  if (live != nullptr && *live == rec) {
    return true;  // identical verdict already the live one
  }
  if (!writeRecord(record)) return false;
  fold(index_, QuarantineLine{key, rec});
  return true;
}

const CampaignStore::Snapshot::Campaign* CampaignStore::campaign(
    std::uint64_t key) const {
  const auto it = index_.campaigns.find(key);
  return it != index_.campaigns.end() ? &it->second : nullptr;
}

std::optional<CampaignStore::QuarantineRecord> CampaignStore::findQuarantine(
    std::uint64_t key, std::size_t first, std::size_t count) const {
  std::lock_guard lock(mutex_);
  const Snapshot::Campaign* c = campaign(key);
  const QuarantineRecord* rec =
      c != nullptr ? heldAt(c->quarantines, first, count) : nullptr;
  return rec != nullptr ? std::optional(*rec) : std::nullopt;
}

std::vector<CampaignStore::QuarantineRecord> CampaignStore::quarantines(
    std::uint64_t key) const {
  std::lock_guard lock(mutex_);
  const Snapshot::Campaign* c = campaign(key);
  return c != nullptr ? valuesOf(c->quarantines)
                      : std::vector<QuarantineRecord>{};
}

const CampaignStore::CellRecord* CampaignStore::findCell(
    std::uint64_t key) const {
  std::lock_guard lock(mutex_);
  const Snapshot::Campaign* c = campaign(key);
  return c != nullptr && c->cell ? &*c->cell : nullptr;
}

std::vector<CampaignStore::CellRecord> CampaignStore::cells() const {
  std::lock_guard lock(mutex_);
  std::vector<CellRecord> out;
  out.reserve(index_.cellOrder.size());
  for (const std::uint64_t key : index_.cellOrder) {
    out.push_back(*index_.campaigns.at(key).cell);
  }
  return out;
}

std::optional<CampaignStore::LeaseRecord> CampaignStore::latestLease(
    std::uint64_t key, std::size_t first, std::size_t count) const {
  std::lock_guard lock(mutex_);
  const Snapshot::Campaign* c = campaign(key);
  const LeaseRecord* rec =
      c != nullptr ? heldAt(c->leases, first, count) : nullptr;
  return rec != nullptr ? std::optional(*rec) : std::nullopt;
}

std::vector<CampaignStore::LeaseRecord> CampaignStore::leases(
    std::uint64_t key) const {
  std::lock_guard lock(mutex_);
  const Snapshot::Campaign* c = campaign(key);
  return c != nullptr ? valuesOf(c->leases) : std::vector<LeaseRecord>{};
}

std::vector<CampaignStore::OutcomeRecord> CampaignStore::outcomes(
    std::uint64_t cacheKey) const {
  std::lock_guard lock(mutex_);
  std::vector<OutcomeRecord> out;
  const auto cache = index_.outcomes.find(cacheKey);
  if (cache == index_.outcomes.end()) return out;
  out.reserve(cache->second.size());
  for (const auto& [key, rec] : cache->second) out.push_back(rec);
  return out;
}

const CampaignStore::ShardAggregate* CampaignStore::findShard(
    std::uint64_t key, std::size_t firstExperiment,
    std::size_t experimentCount) const {
  std::lock_guard lock(mutex_);
  const Snapshot::Campaign* c = campaign(key);
  return c != nullptr ? heldAt(c->shards, firstExperiment, experimentCount)
                      : nullptr;
}

std::size_t CampaignStore::recordedExperiments(std::uint64_t key) const {
  std::lock_guard lock(mutex_);
  const Snapshot::Campaign* c = campaign(key);
  return c != nullptr ? c->recordedExperiments() : 0;
}

const CampaignStore::WorkloadRecord* CampaignStore::findWorkload(
    std::string_view name) const {
  std::lock_guard lock(mutex_);
  const auto it = index_.workloads.find(name);
  return it != index_.workloads.end() ? &it->second : nullptr;
}

CampaignStore::Snapshot CampaignStore::snapshot() const {
  // The file lock is NOT taken: this copies the in-memory index only, so it
  // can never contend with other processes appending to a shared store.
  std::lock_guard lock(mutex_);
  return index_;
}

void CampaignStore::Snapshot::merge(const Snapshot& later) {
  for (const std::uint64_t key : later.cellOrder) {
    fold(*this, *later.campaigns.at(key).cell);
  }
  for (const auto& [key, c] : later.campaigns) {
    for (const auto& [range, agg] : c.shards) {
      fold(*this, ShardLine{c.meta, range, agg});
    }
    for (const auto& [range, lease] : c.leases) {
      fold(*this, LeaseLine{key, lease});
    }
    for (const auto& [range, quarantine] : c.quarantines) {
      fold(*this, QuarantineLine{key, quarantine});
    }
  }
  for (const auto& [name, rec] : later.workloads) fold(*this, rec);
  for (const auto& [key, entries] : later.outcomes) {
    for (const auto& [at, rec] : entries) fold(*this, OutcomeLine{key, rec});
  }
}

std::size_t CampaignStore::Snapshot::Campaign::recordedExperiments() const {
  std::size_t total = 0;
  for (const auto& [range, agg] : shards) total += range.second;
  return total;
}

stats::OutcomeCounts CampaignStore::Snapshot::Campaign::totals() const {
  stats::OutcomeCounts counts;
  for (const auto& [range, agg] : shards) counts.merge(agg.counts);
  return counts;
}

ActivationHistogram CampaignStore::Snapshot::Campaign::histogram() const {
  ActivationHistogram hist{};
  for (const auto& [range, agg] : shards) mergeHistogram(hist, agg.hist);
  return hist;
}

bool CampaignStore::Snapshot::Campaign::complete() const {
  const std::size_t expected = expectedExperiments();
  return expected != 0 && recordedExperiments() == expected;
}

std::size_t CampaignStore::Snapshot::Campaign::expectedExperiments() const {
  if (meta.experiments != 0) return meta.experiments;
  return cell ? cell->experiments : 0;
}

const std::string& CampaignStore::Snapshot::Campaign::workload() const {
  return meta.workload.empty() && cell ? cell->workload : meta.workload;
}

const std::string& CampaignStore::Snapshot::Campaign::specLabel() const {
  return meta.specLabel.empty() && cell ? cell->spec : meta.specLabel;
}

std::uint64_t CampaignStore::Snapshot::Campaign::seed() const {
  return meta.experiments == 0 && cell ? cell->seed : meta.seed;
}

}  // namespace onebit::fi
