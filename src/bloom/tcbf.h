// Temporal Counting Bloom Filter (paper section IV) — the core data
// structure of B-SUB.
//
// Like a CBF, a TCBF pairs each set bit with a counter, but the counters do
// not track key multiplicity; they encode *recency*:
//
//   - insert(key): the key's hashed counters are set to the initial value C.
//     Counters that are already set keep their value, so the result of any
//     sequence of insertions is a filter whose counters all equal C. A key
//     may only be inserted into a filter that has never been merged.
//   - A-merge (additive): bit-vectors OR'd, counters summed. Used when a
//     consumer's genuine filter reinforces a broker's relay filter: repeated
//     meetings pile value onto the consumer's interest bits.
//   - M-merge (maximum): bit-vectors OR'd, counters take the max. Used
//     between brokers to avoid "bogus counters" (paper Fig. 6): two brokers
//     that meet often must not amplify each other's relayed interests in a
//     feedback loop.
//   - decay(amount): every positive counter is decremented by `amount`; a
//     bit clears when its counter reaches zero. This is the only form of
//     deletion (temporal deletion); the decrement rate per unit time is the
//     decaying factor (DF).
//   - existential query: same semantics and FPR as the classic BF.
//   - preferential query: compares the minimum counter of a key's bits in
//     two filters to rank forwarding candidates (see `preference`).
//
// Counters are doubles so that fractional decay rates (e.g. 0.138/min) work
// exactly as the paper's experiments require; the wire codec quantizes them
// to one byte (section VI-C).
//
// Performance representation (not part of the protocol semantics):
//
//   - Decay is O(1): instead of sweeping all m counters, decay accumulates
//     into `decay_base_`. A stored value v represents the effective counter
//     max(0, v - decay_base_); every write stores effective + decay_base_,
//     so interleaved inserts/merges/decays observe exactly the dense
//     semantics. The base is folded back into the array (`normalize`) on
//     merges and when it grows past a precision guard.
//   - Counters live in 64-byte-aligned blocks of 8 doubles, padded to a
//     whole number of occupancy words, so the kernel layer can stream them
//     with aligned vector loads. A per-slot occupancy bitmap (`occupied_`,
//     one 64-bit word per 64 counters = 8 cache lines) lets sweeps and
//     merges skip dead regions at word and cache-line granularity. Decay
//     can silently drain a counter without clearing its occupancy bit;
//     stale bits are skipped on iteration and pruned on the next
//     normalize().
//   - The data-plane operations (merges, normalize, popcount/set-bit
//     sweeps, point queries) run through the runtime-dispatched backend in
//     bloom/kernels.h — scalar, AVX2, or NEON — all
//     bit-identical; see that header for dispatch rules and the
//     lazy-vs-dense merge crossover.
//   - All query entry points have overloads taking a precomputed
//     util::HashPair so hot paths never re-hash key strings (see
//     workload::KeySet::hash for the interned table).
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "bloom/bloom_filter.h"
#include "bloom/bloom_params.h"
#include "bloom/kernels.h"
#include "util/hash.h"

namespace bsub::bloom {

/// Default initial counter value C (paper section VII-A uses C = 50).
inline constexpr double kDefaultInitialCounter = 50.0;

/// Saturation ceiling for counters. Real deployments store counters in one
/// byte (section VI-C), so values are inherently bounded; the in-memory
/// ceiling is far above any genuine reinforcement level but stops the
/// A-merge feedback loop (paper Fig. 6) from overflowing doubles. Every
/// write path enforces it — insert, A-merge, M-merge, and from_counters
/// (the decode path) — so no sequence of operations, including merging
/// decoded wire state, can push a stored counter past the ceiling.
inline constexpr double kCounterSaturation = 1e12;

class Tcbf {
 public:
  explicit Tcbf(BloomParams params = {},
                double initial_counter = kDefaultInitialCounter);

  const BloomParams& params() const { return params_; }
  double initial_counter() const { return initial_counter_; }

  /// Mutation epoch (see bloom::next_filter_epoch): advances on every call
  /// that changes observable filter state — insert, merges, clear, and any
  /// decay that actually drains counters. An unchanged epoch therefore means
  /// unchanged contents, which is what cached wire encodings key on. Copies
  /// keep their source's epoch (same contents, same encoding).
  std::uint64_t epoch() const { return epoch_; }

  /// Inserts a key: counters of its hashed bits are set to the initial
  /// value; already-set counters are left unchanged.
  ///
  /// Precondition (paper section IV-A): the filter has never been merged.
  /// Throws std::logic_error otherwise — to add keys to a merged filter,
  /// insert them into a fresh TCBF and A/M-merge it in.
  void insert(std::string_view key);
  void insert(const util::HashPair& hp);

  /// Additive merge: OR bit-vectors, sum counters.
  void a_merge(const Tcbf& other);

  /// Maximum merge: OR bit-vectors, max counters.
  void m_merge(const Tcbf& other);

  /// Applies `amount` of decay: all positive counters are decremented by it
  /// and clamped at zero. `amount` = DF x elapsed-time in the caller's units.
  /// O(1): the amount accumulates into the decay base.
  void decay(double amount);

  /// Existential query: true iff all of the key's hashed bits are set.
  bool contains(std::string_view key) const;
  bool contains(const util::HashPair& hp) const;

  /// Existential query over precomputed bit positions (util::bloom_indices
  /// of the key for this filter's params). Bit-identical to contains().
  bool contains_at(const util::IndexArray& indices) const {
    return kernels::active().contains(const_view(), indices.begin(),
                                      indices.size());
  }

  /// Minimum counter value over the key's hashed bits, or nullopt when the
  /// key is absent (some bit unset). This is the "c" of the preferential
  /// query and also what drives temporal deletion: the key lives until its
  /// minimum counter drains.
  std::optional<double> min_counter(std::string_view key) const;
  std::optional<double> min_counter(const util::HashPair& hp) const;
  /// Minimum counter over precomputed bit positions (fast path companion of
  /// contains_at). Bit-identical to min_counter().
  std::optional<double> min_counter_at(const util::IndexArray& indices) const {
    double out = 0.0;
    if (!kernels::active().min_counter(const_view(), indices.begin(),
                                       indices.size(), &out)) {
      return std::nullopt;
    }
    return out;
  }

  double counter(std::size_t i) const;
  bool test_bit(std::size_t i) const { return counter(i) > 0.0; }

  std::size_t popcount() const;
  double fill_ratio() const;
  std::vector<std::size_t> set_bits() const;
  /// Scratch-friendly variant: fills `out` (cleared first) so hot encoders
  /// can reuse one buffer instead of allocating per call.
  void set_bits_into(std::vector<std::size_t>& out) const;
  bool empty() const;

  /// True once the filter has participated in any merge (insert disabled).
  bool merged() const { return merged_; }

  /// Rips the counters off, leaving the plain Bloom filter used in
  /// bandwidth-saving interest reports (paper section V-D).
  BloomFilter to_bloom_filter() const;

  void clear();

  /// Effective (decayed) counter array, materialized densely — for the
  /// codec and tests, not for hot paths.
  std::vector<double> counters() const;

  /// Rebuilds a TCBF from decoded state. Marks the filter as merged.
  static Tcbf from_counters(BloomParams params, double initial_counter,
                            std::vector<double> counters);

 private:
  /// Effective value of slot i under the current decay base.
  double effective(std::size_t i) const {
    double v = raw_[i];
    return v > decay_base_ ? v - decay_base_ : 0.0;
  }

  void mark_occupied(std::size_t i) {
    std::uint64_t& word = occupied_[i >> 6];
    const std::uint64_t bit = 1ULL << (i & 63);
    occupied_bits_ += !(word & bit);
    word |= bit;
  }

  /// Folds decay_base_ into raw_ and prunes stale occupancy bits. Exact:
  /// effective values are unchanged (single subtraction per live slot).
  void normalize();

  void touch() { epoch_ = next_filter_epoch(); }

  /// Kernel views over the hot arrays (see bloom/kernels.h).
  kernels::ConstView const_view() const {
    return {raw_.data(), occupied_.data(), occupied_.size(), occupied_bits_,
            decay_base_};
  }
  kernels::MutView mut_view() {
    return {raw_.data(), occupied_.data(), occupied_.size(), &occupied_bits_};
  }

  BloomParams params_;
  double initial_counter_;
  bool merged_ = false;
  double decay_base_ = 0.0;
  /// Stored counters: raw_[i] = effective + decay_base_ at write time;
  /// 0 means the slot was never set (or was cleared by a normalize).
  /// 64-byte aligned and padded to occupied_.size() * 64 slots so kernels
  /// stream whole cache-line blocks; slots at index >= params_.m stay 0.
  kernels::CounterVector raw_;
  /// Per-slot occupancy: bit i set => raw_[i] > 0 (superset of the live
  /// bits; decay can leave stale entries until the next normalize).
  std::vector<std::uint64_t> occupied_;
  /// Number of set occupancy bits (upper bound on popcount()).
  std::size_t occupied_bits_ = 0;
  std::uint64_t epoch_ = next_filter_epoch();
};

/// Preferential query (paper section IV-A): the preference of filter `b`
/// for `key` against filter `f`:
///
///   pref = c_b - c_f   if the key exists in f (c_f != 0)
///        = c_b         if the key is absent from f
///
/// where c_x is the minimum counter of the key's bits in x, taken as 0 when
/// the key is absent from x. A broker forwards the messages with the largest
/// positive preference first.
double preference(const Tcbf& b, const Tcbf& f, std::string_view key);
double preference(const Tcbf& b, const Tcbf& f, const util::HashPair& hp);
/// Preferential query over precomputed bit positions (fast-path companion
/// of contains_at / min_counter_at). Requires b.params() == f.params() —
/// the params the indices were computed against. Bit-identical to
/// preference().
double preference_at(const Tcbf& b, const Tcbf& f,
                     const util::IndexArray& indices);

}  // namespace bsub::bloom
