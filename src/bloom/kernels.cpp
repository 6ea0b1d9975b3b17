// TCBF kernel dispatch: resolves the backend once per process.
//
// Resolution order:
//   1. -DBSUB_FORCE_SCALAR builds hardwire the portable scalar kernel (the
//      other backends are not even registered).
//   2. Otherwise the widest backend this build and this CPU support —
//      AVX2 (runtime CPUID check) > NEON (architectural on aarch64) >
//      scalar.
//
// force_kernel() replaces the cached choice afterwards (the differential
// tests and the kernel benches use it); it is not safe against concurrently
// running filter operations, which is fine for those callers.
#include "bloom/kernels.h"

#include <atomic>

namespace bsub::bloom::kernels {

namespace {

#if defined(BSUB_HAVE_AVX2_KERNEL)
bool cpu_has_avx2() {
#if defined(__GNUC__) || defined(__clang__)
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}
#endif

/// Backend lookup: nullptr when the kind is not compiled in or the CPU
/// lacks the ISA.
const Ops* lookup(Kind kind) {
  switch (kind) {
    case Kind::kScalar:
      return &scalar_ops();
#if !defined(BSUB_FORCE_SCALAR)
#if defined(BSUB_HAVE_AVX2_KERNEL)
    case Kind::kAvx2:
      return cpu_has_avx2() ? &avx2_ops() : nullptr;
#endif
#if defined(BSUB_HAVE_NEON_KERNEL)
    case Kind::kNeon:
      return &neon_ops();
#endif
#endif
    default:
      return nullptr;
  }
}

const Ops& detect() {
  for (Kind kind : {Kind::kAvx2, Kind::kNeon}) {
    if (const Ops* ops = lookup(kind); ops != nullptr) return *ops;
  }
  return scalar_ops();
}

/// The dispatched table. Lazy: first call runs detect(); a racing second
/// thread re-derives the same pointer, so the relaxed publish is benign
/// (the Ops tables are constant-initialized statics).
std::atomic<const Ops*> g_active{nullptr};

}  // namespace

const Ops& active() {
  const Ops* ops = g_active.load(std::memory_order_acquire);
  if (ops == nullptr) {
    ops = &detect();
    g_active.store(ops, std::memory_order_release);
  }
  return *ops;
}

Kind active_kind() { return active().kind; }

bool available(Kind kind) { return lookup(kind) != nullptr; }

const Ops* get(Kind kind) { return lookup(kind); }

bool force_kernel(Kind kind) {
  const Ops* ops = lookup(kind);
  if (ops == nullptr) return false;
  g_active.store(ops, std::memory_order_release);
  return true;
}

std::string_view kind_name(Kind kind) {
  switch (kind) {
    case Kind::kScalar:
      return "scalar";
    case Kind::kAvx2:
      return "avx2";
    case Kind::kNeon:
      return "neon";
  }
  return "?";
}

}  // namespace bsub::bloom::kernels
