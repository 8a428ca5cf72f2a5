#include "vm/memory.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <new>
#include <stdexcept>
#include <utility>

#include "vm/state_hash.hpp"

namespace onebit::vm {

using ir::kGlobalBase;
using ir::kHeapBase;
using ir::kStackBase;

namespace {

/// Set when this thread's StackCache is destroyed at thread exit. Trivially
/// destructible, so it stays readable afterwards: a Memory that outlives
/// the cache (one with static storage duration, say) then bypasses it.
thread_local bool tlsStacksClosed = false;

/// Zeroed stack buffers parked by destroyed Memorys for the next Memory of
/// the same size on this thread: at most one per size and kSlots in all, so
/// the one-Machine-per-thread campaign path always hits and the cache stays
/// bounded. Parked buffers are freed at thread exit.
struct StackCache {
  static constexpr std::size_t kSlots = 4;
  struct Slot {
    std::uint8_t* data = nullptr;
    std::size_t bytes = 0;
  };
  Slot slots[kSlots];

  StackCache() = default;
  StackCache(const StackCache&) = delete;
  StackCache& operator=(const StackCache&) = delete;
  ~StackCache() {
    for (const Slot& slot : slots) std::free(slot.data);
    tlsStacksClosed = true;
  }
};

thread_local StackCache tlsStacks;

/// A zeroed buffer of `bytes` (at least 1) from this thread's cache, or a
/// fresh calloc on a miss.
std::uint8_t* takeStack(std::size_t bytes) {
  if (!tlsStacksClosed) {
    for (StackCache::Slot& slot : tlsStacks.slots) {
      if (slot.data != nullptr && slot.bytes == bytes) {
        return std::exchange(slot.data, nullptr);
      }
    }
  }
  auto* p =
      static_cast<std::uint8_t*>(std::calloc(bytes != 0 ? bytes : 1, 1));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

/// Park an all-zero buffer of `bytes` for reuse, or free it when this
/// thread already holds one of that size, every slot is taken, or the
/// cache is gone.
void giveStack(std::uint8_t* p, std::size_t bytes) noexcept {
  StackCache::Slot* free = nullptr;
  if (!tlsStacksClosed) {
    for (StackCache::Slot& slot : tlsStacks.slots) {
      if (slot.data != nullptr && slot.bytes == bytes) {
        free = nullptr;
        break;
      }
      if (slot.data == nullptr && free == nullptr) free = &slot;
    }
  }
  if (free != nullptr) {
    *free = {p, bytes};
  } else {
    std::free(p);
  }
}

}  // namespace

Memory::Memory(const std::vector<std::uint8_t>& globalImage,
               std::size_t stackBytes, std::size_t maxHeapBytes)
    : globals_(globalImage),
      stackSize_(stackBytes),
      maxHeapBytes_(maxHeapBytes) {
  heap_.reserve(4096);
  stack_ = takeStack(stackBytes);  // last: nothing after it may throw
}

Memory::~Memory() {
  // Every byte at or beyond storeHighWater_ is still zero (the class
  // invariant), so clearing the dirtied prefix returns an all-zero buffer.
  std::fill(stack_, stack_ + storeHighWater_, 0);
  giveStack(stack_, stackSize_);
}

std::uint8_t* Memory::resolve(std::uint64_t addr, unsigned width,
                              TrapKind& trap) noexcept {
  if (width == 8 && (addr & 7U) != 0) {
    trap = TrapKind::Misaligned;
    return nullptr;
  }
  auto inSegment = [&](std::uint64_t base, std::uint8_t* data,
                       std::size_t size) -> std::uint8_t* {
    if (addr >= base && addr - base + width <= size) {
      return data + (addr - base);
    }
    return nullptr;
  };
  // Order by expected access frequency: stack, globals, heap.
  if (auto* p = inSegment(kStackBase, stack_, stackSize_)) return p;
  if (auto* p = inSegment(kGlobalBase, globals_.data(), globals_.size())) {
    return p;
  }
  if (auto* p = inSegment(kHeapBase, heap_.data(), heap_.size())) return p;
  trap = TrapKind::SegFault;
  return nullptr;
}

std::uint64_t Memory::load(std::uint64_t addr, unsigned width,
                           TrapKind& trap) noexcept {
  const std::uint8_t* p = resolve(addr, width, trap);
  if (p == nullptr) return 0;
  if (width == 8) {
    std::uint64_t v;
    std::memcpy(&v, p, 8);
    return v;
  }
  return *p;
}

void Memory::store(std::uint64_t addr, unsigned width, std::uint64_t value,
                   TrapKind& trap) noexcept {
  std::uint8_t* p = resolve(addr, width, trap);
  if (p == nullptr) return;
  const std::uint64_t stackOff = addr - kStackBase;  // wraps below kStackBase
  if (stackOff < stackSize_) {
    storeHighWater_ =
        std::max(storeHighWater_, static_cast<std::size_t>(stackOff) + width);
  }
  // Segment bases are 8-aligned, so the containing word never crosses a
  // segment boundary; a width-1 store only ever changes its one word.
  const std::uint64_t wordAddr = addr & ~7ULL;
  const std::uint64_t oldWord = hashing_ ? wordValueAt(wordAddr) : 0;
  if (width == 8) {
    std::memcpy(p, &value, 8);
  } else {
    *p = static_cast<std::uint8_t>(value);
  }
  if (hashing_) foldWordDelta(wordAddr, oldWord, wordValueAt(wordAddr));
}

void Memory::poke(std::uint64_t addr, unsigned width, std::uint64_t mask,
                  TrapKind& trap) noexcept {
  std::uint8_t* p = resolve(addr, width, trap);
  if (p == nullptr) return;
  const std::uint64_t stackOff = addr - kStackBase;  // wraps below kStackBase
  if (stackOff < stackSize_) {
    storeHighWater_ =
        std::max(storeHighWater_, static_cast<std::size_t>(stackOff) + width);
  }
  const std::uint64_t wordAddr = addr & ~7ULL;
  const std::uint64_t oldWord = hashing_ ? wordValueAt(wordAddr) : 0;
  if (width == 8) {
    std::uint64_t v;
    std::memcpy(&v, p, 8);
    v ^= mask;
    std::memcpy(p, &v, 8);
  } else {
    *p ^= static_cast<std::uint8_t>(mask);
  }
  if (hashing_) foldWordDelta(wordAddr, oldWord, wordValueAt(wordAddr));
}

void Memory::captureSegments(std::size_t stackUsed,
                             std::vector<std::uint8_t>& globals,
                             std::vector<std::uint8_t>& stack,
                             std::vector<std::uint8_t>& heap) const {
  globals = globals_;
  stackUsed = std::min(stackUsed, stackSize_);
  stack.assign(stack_, stack_ + stackUsed);
  heap = heap_;
}

void Memory::restoreSegments(const std::vector<std::uint8_t>& globals,
                             const std::vector<std::uint8_t>& stackPrefix,
                             const std::vector<std::uint8_t>& heap) {
  if (globals.size() != globals_.size() || stackPrefix.size() > stackSize_ ||
      heap.size() > maxHeapBytes_) {
    throw std::invalid_argument(
        "vm::Memory: snapshot segments do not fit this memory geometry");
  }
  globals_ = globals;
  std::copy(stackPrefix.begin(), stackPrefix.end(), stack_);
  // Every byte at or beyond storeHighWater_ is still zero (the class
  // invariant), so only the slice the old content could have dirtied needs
  // re-zeroing — not the whole stack. Campaigns resume thousands of
  // snapshots per second; a full-stack fill here would dominate their
  // backend-independent cost.
  if (storeHighWater_ > stackPrefix.size()) {
    std::fill(stack_ + stackPrefix.size(),
              stack_ + storeHighWater_, 0);
  }
  storeHighWater_ = stackPrefix.size();
  heap_ = heap;
  if (hashing_) hash_ = computeContentHash();
}

void Memory::trackContentHash(bool on) {
  hashing_ = on;
  hash_ = on ? computeContentHash() : 0;
}

std::uint64_t Memory::wordValueAt(std::uint64_t wordAddr) const noexcept {
  const std::uint8_t* seg = nullptr;
  std::size_t segSize = 0;
  std::uint64_t base = 0;
  if (wordAddr >= kStackBase && wordAddr - kStackBase < stackSize_) {
    seg = stack_;
    segSize = stackSize_;
    base = kStackBase;
  } else if (wordAddr >= kGlobalBase &&
             wordAddr - kGlobalBase < globals_.size()) {
    seg = globals_.data();
    segSize = globals_.size();
    base = kGlobalBase;
  } else if (wordAddr >= kHeapBase && wordAddr - kHeapBase < heap_.size()) {
    seg = heap_.data();
    segSize = heap_.size();
    base = kHeapBase;
  } else {
    return 0;
  }
  const std::size_t off = static_cast<std::size_t>(wordAddr - base);
  const std::size_t n = std::min<std::size_t>(8, segSize - off);
  std::uint64_t w = 0;
  std::memcpy(&w, seg + off, n);
  return w;
}

void Memory::foldWordDelta(std::uint64_t wordAddr, std::uint64_t oldWord,
                           std::uint64_t newWord) noexcept {
  if (oldWord == newWord) return;
  if (oldWord != 0) hash_ ^= statehash::memTerm(wordAddr, oldWord);
  if (newWord != 0) hash_ ^= statehash::memTerm(wordAddr, newWord);
}

std::uint64_t Memory::computeContentHash() const noexcept {
  std::uint64_t h = 0;
  const auto fold = [&](const std::uint8_t* seg, std::size_t segSize,
                        std::uint64_t base, std::size_t limit) {
    for (std::size_t off = 0; off < limit; off += 8) {
      const std::size_t n = std::min<std::size_t>(8, segSize - off);
      std::uint64_t w = 0;
      std::memcpy(&w, seg + off, n);
      if (w != 0) h ^= statehash::memTerm(base + off, w);
    }
  };
  fold(globals_.data(), globals_.size(), kGlobalBase, globals_.size());
  // Bytes at or beyond the store high-water mark are untouched zeros, so
  // words there contribute nothing — skip them.
  fold(stack_, stackSize_, kStackBase, storeHighWater_);
  fold(heap_.data(), heap_.size(), kHeapBase, heap_.size());
  return h;
}

std::uint64_t Memory::alloc(std::int64_t bytes, TrapKind& trap) {
  if (bytes < 0 ||
      heap_.size() + static_cast<std::uint64_t>(bytes) > maxHeapBytes_) {
    trap = TrapKind::SegFault;
    return 0;
  }
  while (heap_.size() % 8 != 0) heap_.push_back(0);
  const std::uint64_t addr = kHeapBase + heap_.size();
  heap_.insert(heap_.end(), static_cast<std::size_t>(bytes), 0);
  return addr;
}

}  // namespace onebit::vm
