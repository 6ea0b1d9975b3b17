// Shared sizing parameters for the Bloom-filter family.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace bsub::bloom {

/// Process-wide unique mutation epoch for filters. Every mutating filter
/// operation stamps its filter with a fresh value, so equal epochs imply
/// identical filter contents (a copy shares its source's epoch until either
/// mutates) — which is exactly what the wire-encoding caches key on. Never
/// returns 0; caches use 0 as "empty".
///
/// Thread-safety: each thread reserves a block of 4096 values from one
/// relaxed atomic counter and hands them out locally, so epochs
/// are unique across concurrent batch workers without every filter
/// mutation bouncing the counter's cache line between cores. Uniqueness is
/// all the caches rely on — epochs are increasing per thread but not
/// globally ordered, and the values a run hands out may differ between
/// schedules, but cache hits and misses (and thus every encoded byte) do
/// not.
inline std::uint64_t next_filter_epoch() {
  constexpr std::uint64_t kBlock = 4096;
  static std::atomic<std::uint64_t> counter{0};
  thread_local std::uint64_t next = 0;
  thread_local std::uint64_t end = 0;
  if (next == end) {
    next = counter.fetch_add(kBlock, std::memory_order_relaxed) + 1;
    end = next + kBlock;
  }
  return next++;
}

/// Bit-vector length and hash-function count for a filter.
///
/// Paper defaults (section VII-A): a 256-bit vector with 4 hash functions,
/// which yields a worst-case theoretical FPR of ~0.04 at 38 stored keys.
struct BloomParams {
  std::size_t m = 256;   ///< bits in the vector
  std::uint32_t k = 4;   ///< hash functions per key

  friend bool operator==(const BloomParams&, const BloomParams&) = default;
};

}  // namespace bsub::bloom
