// Fuzz target for the TCBF kernel layer (bloom/kernels.h): differential
// execution of the scalar reference against every other runnable backend
// (avx2, neon) on the same fuzzer-chosen op schedule.
//
// The input is a little op program over two filters, b (merge destination)
// and f (peer filter):
//
//   byte 0      geometry: bits 0-1 pick m from {64, 256, 1024, 4096},
//               bits 2-3 pick k from 2..5
//   op & 0x07 == 0   A-merge a fresh filter of 1..4 keys into b
//            == 1   M-merge a fresh filter of 1..4 keys into f
//            == 2   decay b (and f when op bit 3 is set) by L * 0.25
//            == 3   insert a key into f (while f is still never-merged)
//            == 4   b.m_merge(f)
//            == 5   point queries: contains / min_counter / preference
//            == 6   derived views: popcount / set-bit extraction
//            == 7   encode b to wire bytes (kFull)
//
// Every observable — query answers recorded mid-run, the final raw counter
// bit patterns, occupancy-derived views, and the encoded wire bytes — must
// be byte-identical across backends; any divergence aborts. This is the
// same contract the kernel differential test checks, but with the schedule
// chosen adversarially rather than from a fixed seed list.
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bloom/bloom_params.h"
#include "bloom/kernels.h"
#include "bloom/tcbf.h"
#include "bloom/tcbf_codec.h"
#include "util/hash.h"

namespace {

namespace kernels = bsub::bloom::kernels;

[[noreturn]] void fail(const char* invariant, kernels::Kind kind) {
  std::fprintf(stderr, "fuzz invariant violated: %s (kernel %.*s)\n",
               invariant,
               static_cast<int>(kernels::kind_name(kind).size()),
               kernels::kind_name(kind).data());
  std::abort();
}

const std::string& pool_key(std::uint8_t id) {
  static const std::vector<std::string>* keys = [] {
    auto* k = new std::vector<std::string>;
    for (int i = 0; i < 64; ++i) k->push_back("fk" + std::to_string(i));
    return k;
  }();
  return (*keys)[id % 64];
}

/// Executes the whole op program under the currently forced kernel and
/// returns every observable as one flat word trace.
std::vector<std::uint64_t> run_program(const std::uint8_t* data,
                                       std::size_t size) {
  static constexpr std::size_t kMs[4] = {64, 256, 1024, 4096};
  const bsub::bloom::BloomParams params{
      kMs[data[0] & 0x03],
      static_cast<std::uint32_t>(2 + ((data[0] >> 2) & 0x03))};

  std::vector<std::uint64_t> trace;
  bsub::bloom::Tcbf b(params, 50.0);
  bsub::bloom::Tcbf f(params, 50.0);
  bool f_insertable = true;

  std::size_t pos = 1;
  auto next = [&]() -> std::uint8_t {
    return pos < size ? data[pos++] : 0;
  };

  while (pos < size) {
    const std::uint8_t op = next();
    switch (op & 0x07) {
      case 0:
      case 1: {
        bsub::bloom::Tcbf fresh(params, 50.0);
        const int nk = 1 + ((op >> 3) & 0x03);
        for (int j = 0; j < nk; ++j) fresh.insert(pool_key(next()));
        if ((op & 0x07) == 0) {
          b.a_merge(fresh);
        } else {
          f.m_merge(fresh);
          f_insertable = false;
        }
        break;
      }
      case 2: {
        const double amount = 0.25 * static_cast<double>(next());
        b.decay(amount);
        if ((op & 0x08) != 0) f.decay(amount);
        break;
      }
      case 3:
        if (f_insertable) f.insert(pool_key(next()));
        break;
      case 4:
        b.m_merge(f);
        break;
      case 5: {
        const std::string& k = pool_key(next());
        trace.push_back(b.contains(k));
        trace.push_back(
            std::bit_cast<std::uint64_t>(b.min_counter(k).value_or(-1.0)));
        trace.push_back(
            std::bit_cast<std::uint64_t>(bsub::bloom::preference(b, f, k)));
        const bsub::util::IndexArray idx =
            bsub::util::bloom_indices(k, params.k, params.m);
        trace.push_back(std::bit_cast<std::uint64_t>(
            bsub::bloom::preference_at(b, f, idx)));
        break;
      }
      case 6: {
        trace.push_back(b.popcount());
        trace.push_back(f.popcount());
        for (std::size_t i : b.set_bits()) trace.push_back(i);
        break;
      }
      case 7: {
        for (std::uint8_t byte :
             encode_tcbf(b, bsub::bloom::CounterEncoding::kFull)) {
          trace.push_back(byte);
        }
        break;
      }
    }
  }

  for (double v : b.counters()) {
    trace.push_back(std::bit_cast<std::uint64_t>(v));
  }
  for (double v : f.counters()) {
    trace.push_back(std::bit_cast<std::uint64_t>(v));
  }
  trace.push_back(b.popcount());
  trace.push_back(f.popcount());
  return trace;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size < 2) return 0;

  const kernels::Kind dispatched = kernels::active_kind();
  if (!kernels::force_kernel(kernels::Kind::kScalar)) {
    fail("scalar kernel unavailable", kernels::Kind::kScalar);
  }
  const std::vector<std::uint64_t> reference = run_program(data, size);

  for (kernels::Kind kind : {kernels::Kind::kAvx2, kernels::Kind::kNeon}) {
    if (!kernels::available(kind)) continue;
    kernels::force_kernel(kind);
    if (run_program(data, size) != reference) {
      fail("kernel diverged from scalar reference", kind);
    }
  }

  kernels::force_kernel(dispatched);
  return 0;
}
