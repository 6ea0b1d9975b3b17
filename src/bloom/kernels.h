// TCBF kernel layer: the data-plane operations of the Temporal Counting
// Bloom Filter — A-merge, M-merge, normalize (decay-base fold), popcount /
// set-bit extraction, and the existential / preferential point queries —
// extracted behind one function-pointer table so the same protocol
// semantics can run on different machine backends:
//
//   - kScalar   portable reference: the exact per-bit loops the repo
//               shipped with, plus a dense full-sweep fallback above the
//               density crossover (see below);
//   - kAvx2     x86-64 AVX2: walks the occupancy bitmap one 64-slot word
//               at a time and touches counters at cache-line granularity
//               (8 doubles = 64 bytes per occupancy byte), each line
//               processed as two 256-bit vector ops, so a sparse merge
//               moves O(set keys) cache lines instead of O(m) (point
//               queries stay scalar — k is tiny and gathers lose to plain
//               loads);
//   - kNeon     aarch64 NEON: the same cache-line structure on 128-bit
//               lanes.
//
// Every kernel computes bit-identical results: all arithmetic is
// element-wise IEEE add/sub/min/max with no reassociation, so the effective
// counter array, the occupancy bitmap, every query answer, and therefore
// every encoded wire byte are equal across backends (the kernel
// differential test and fuzz_tcbf_kernels enforce this).
//
// Lazy-vs-dense crossover: the scalar kernel walks the source's occupancy
// bitmap bit-by-bit while the source is sparse, but above an occupancy
// threshold (1/16 of slots) it switches to a dense word sweep — per-bit
// extraction costs more than streaming the array once when a meaningful
// fraction of slots is live (this is what made the lazy representation
// *lose* to dense on a_merge at m=1024). The SIMD kernels make the
// equivalent decision at cache-line granularity instead: one occupancy
// byte gates one 64-byte block, a nearly-free predictable branch when the
// source is dense and a full line of saved memory traffic when it is
// sparse, so they need no density switch at all. Crossovers only change
// the instruction schedule, never the results.
//
// Dispatch: the backend is chosen once per process from the build and the
// CPU alone — AVX2 (CPUID-checked) > NEON > scalar. force_kernel() swaps it
// for the differential tests and the kernel benches. Building with
// -DBSUB_FORCE_SCALAR=ON compiles the portable scalar kernel only (CI keeps
// that configuration green; it is what a machine without AVX2/NEON runs).
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <string_view>
#include <vector>

namespace bsub::bloom::kernels {

/// Counter storage granularity: one cache line of 8 doubles. The counter
/// array is allocated on this alignment and padded to whole occupancy
/// words, so kernels may always load full aligned blocks.
inline constexpr std::size_t kCounterAlign = 64;

/// Counter slots covered by one occupancy-bitmap word.
inline constexpr std::size_t kSlotsPerWord = 64;

/// Allocator pinning counter blocks to cache-line boundaries (and thereby
/// to legal targets for aligned vector loads).
template <class T>
struct AlignedAllocator {
  using value_type = T;

  AlignedAllocator() = default;
  template <class U>
  AlignedAllocator(const AlignedAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{kCounterAlign}));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    ::operator delete(p, n * sizeof(T), std::align_val_t{kCounterAlign});
  }

  template <class U>
  friend bool operator==(const AlignedAllocator&,
                         const AlignedAllocator<U>&) noexcept {
    return true;
  }
};

/// The TCBF counter array: 64-byte aligned, sized to a whole number of
/// occupancy words (padding slots hold 0.0 and never gain occupancy bits).
using CounterVector = std::vector<double, AlignedAllocator<double>>;

/// Read-only view of one filter's hot state. `raw` holds words *
/// kSlotsPerWord slots; a stored value v represents the effective counter
/// max(0, v - base). `occ` bit i set implies raw[i] > 0 (superset of the
/// live slots: decay can strand stale bits until the next normalize).
struct ConstView {
  const double* raw;
  const std::uint64_t* occ;
  std::size_t words;
  std::size_t occupied_bits;  ///< set bits in occ (upper bound on live slots)
  double base;                ///< pending decay not yet folded into raw
};

/// Mutable view of a merge destination. Merge kernels require the
/// destination to be normalized first (base folded in, so occ bit i <=>
/// raw[i] > 0); they keep `*occupied_bits` in sync with `occ`.
struct MutView {
  double* raw;
  std::uint64_t* occ;
  std::size_t words;
  std::size_t* occupied_bits;
};

enum class Kind : std::uint8_t { kScalar = 0, kAvx2 = 1, kNeon = 2 };

/// One backend's implementation of the TCBF data plane. All functions are
/// total over valid views and produce results bit-identical to the scalar
/// reference.
struct Ops {
  Kind kind;
  const char* name;

  /// dst[i] = min(dst[i] + src_effective[i], saturation); OR-in occupancy.
  void (*a_merge)(const MutView& dst, const ConstView& src, double saturation);
  /// dst[i] = max(dst[i], min(src_effective[i], saturation)); OR-in occupancy.
  void (*m_merge)(const MutView& dst, const ConstView& src, double saturation);
  /// Folds `base` into the array (raw[i] = effective) and prunes occupancy
  /// bits whose slot drained to zero.
  void (*normalize)(const MutView& f, double base);
  /// Number of live slots (effective > 0).
  std::size_t (*popcount)(const ConstView& f);
  /// Ascending indices of live slots appended into `out` (cleared first).
  void (*set_bits_into)(const ConstView& f, std::vector<std::size_t>& out);
  /// Existential query: all k slots live?
  bool (*contains)(const ConstView& f, const std::size_t* idx, std::size_t k);
  /// Minimum effective counter over k slots; false when any slot is dead.
  bool (*min_counter)(const ConstView& f, const std::size_t* idx,
                      std::size_t k, double* out);
};

/// Preferential query (paper section IV-A) over precomputed slot indices,
/// composed from the backend's min_counter: c_b - c_f when the key exists
/// in f, else c_b (with absent minima taken as 0).
inline double preference(const Ops& ops, const ConstView& b,
                         const std::size_t* b_idx, const ConstView& f,
                         const std::size_t* f_idx, std::size_t k) {
  double cb = 0.0;
  ops.min_counter(b, b_idx, k, &cb);
  double cf = 0.0;
  if (!ops.min_counter(f, f_idx, k, &cf)) return cb;
  return cb - cf;
}

/// Per-backend tables. scalar_ops() always exists; avx2_ops()/neon_ops()
/// exist only in builds whose toolchain produced the corresponding
/// translation unit — use get()/available() for portable lookup.
const Ops& scalar_ops();
#if defined(BSUB_HAVE_AVX2_KERNEL)
const Ops& avx2_ops();
#endif
#if defined(BSUB_HAVE_NEON_KERNEL)
const Ops& neon_ops();
#endif

/// True when `kind` is compiled in, runnable on this CPU, and not excluded
/// by -DBSUB_FORCE_SCALAR.
bool available(Kind kind);

/// The backend's table, or nullptr when unavailable.
const Ops* get(Kind kind);

/// The dispatched backend: resolved once (the widest available), then
/// cached for the process lifetime.
const Ops& active();
Kind active_kind();

/// Replaces the dispatched backend (differential tests, kernel benches).
/// Returns false — leaving dispatch unchanged — when `kind` is unavailable.
/// Not safe to call concurrently with in-flight filter operations.
bool force_kernel(Kind kind);

std::string_view kind_name(Kind kind);

}  // namespace bsub::bloom::kernels
