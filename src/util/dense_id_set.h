// A set of dense integer ids stored as a bitmap: one bit per id in
// [0, universe), grown on demand for ids past it.
//
// Meant for ids that a run hands out densely from 0 (message ids are
// renumbered in creation order by workload::Workload), where a bitmap beats
// a hash set on every axis: a lookup is one shift and one mask, membership
// costs ⌈universe/64⌉·8 bytes no matter how many ids are set, and nothing
// is hashed or allocated after construction unless an id lies past the
// universe. Lookups never allocate: an id past the end reads as absent.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace bsub::util {

class DenseIdSet {
 public:
  DenseIdSet() = default;
  /// Pre-sizes the bitmap for ids in [0, universe).
  explicit DenseIdSet(std::size_t universe) : words_((universe + 63) / 64) {}

  bool contains(std::uint64_t id) const {
    const std::uint64_t w = id >> 6;
    return w < words_.size() && ((words_[w] >> (id & 63)) & 1u) != 0;
  }

  /// Adds `id`, growing the bitmap if it lies past the universe. Returns
  /// true iff the id was not present before.
  bool insert(std::uint64_t id) {
    const std::uint64_t w = id >> 6;
    if (w >= words_.size()) words_.resize(w + 1);
    const std::uint64_t bit = std::uint64_t{1} << (id & 63);
    const bool fresh = (words_[w] & bit) == 0;
    words_[w] |= bit;
    return fresh;
  }

  void erase(std::uint64_t id) {
    const std::uint64_t w = id >> 6;
    if (w < words_.size()) words_[w] &= ~(std::uint64_t{1} << (id & 63));
  }

 private:
  std::vector<std::uint64_t> words_;
};

}  // namespace bsub::util
