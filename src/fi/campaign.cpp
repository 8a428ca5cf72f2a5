#include "fi/campaign.hpp"

#include <algorithm>
#include <thread>

#include "util/thread_pool.hpp"

namespace onebit::fi {

void mergeHistogram(ActivationHistogram& into,
                    const ActivationHistogram& from) noexcept {
  for (std::size_t o = 0; o < stats::kOutcomeCount; ++o) {
    for (std::size_t k = 0; k <= kMaxActivationBucket; ++k) {
      into[o][k] += from[o][k];
    }
  }
}

std::size_t resolveThreads(std::size_t requested) noexcept {
  const std::size_t threads =
      requested != 0
          ? requested
          : std::max<std::size_t>(1, std::thread::hardware_concurrency());
  return std::min(threads, util::ThreadPool::kMaxThreads);
}

std::size_t resolveShardSize(std::size_t experiments,
                             std::size_t requested) noexcept {
  if (requested != 0) {
    // Clamp so a shard count can never overflow to 0 while experiments > 0
    // (e.g. requested == SIZE_MAX making `experiments + requested - 1` wrap).
    return std::clamp<std::size_t>(requested, 1,
                                   std::max<std::size_t>(1, experiments));
  }
  // Auto geometry must be a function of the campaign alone — NOT of the
  // thread count — or a store recorded on one machine would silently fail
  // to resume on another (shard records match by exact experiment range).
  // ~64 shards per campaign balances load across shards of uneven cost on
  // any sane core count; the floor keeps tiny campaigns from paying
  // per-task overhead per experiment, the ceiling keeps progress
  // callbacks flowing on huge ones.
  constexpr std::size_t kTargetShards = 64;
  return std::clamp<std::size_t>(
      (experiments + kTargetShards - 1) / kTargetShards, 16, 4096);
}

}  // namespace onebit::fi
