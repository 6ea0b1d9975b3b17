// Reproduces the paper's memory/bandwidth claim (sections IV-B, VI-C,
// VII-A): representing the interest set with a TCBF takes about half the
// space of raw strings, and each protocol exchange ships only dozens of
// bytes. On top of the wire-size table, measures the *resident* side of the
// same story: what one node of protocol state costs on the heap, eager
// (historical layout) vs lazy/pooled, using the shared allocation hooks
// from resource_stats.h.
#define BSUB_RESOURCE_STATS_COUNT_ALLOCS
#include "resource_stats.h"

#include "experiment_common.h"

#include "bloom/tcbf.h"
#include "bloom/tcbf_codec.h"
#include "core/broker_allocation.h"
#include "core/interest_manager.h"

namespace {

// Heap bytes allocated while constructing protocol state for `nodes` nodes
// and then activating `active` of them (one absorbed interest + one window
// meeting each). The alloc counter is monotone (frees are not subtracted),
// so each delta is exactly what that region allocated.
struct StateCost {
  std::uint64_t idle_bytes = 0;    ///< construction only — every node pays
  std::uint64_t active_bytes = 0;  ///< materialization for `active` nodes
};

StateCost measure_state(const bsub::workload::KeySet& keys, std::size_t nodes,
                        std::size_t active, bool reference) {
  using namespace bsub;
  const bloom::BloomParams params{256, 4};
  const std::uint64_t start = bench::allocated_bytes_now();
  core::InterestManager im(keys, nodes, params, 50.0, 0.5,
                           /*eager_state=*/reference);
  core::BrokerElection el(nodes,
                          {3, 5, 5 * util::kHour,
                           /*reference_state=*/reference});
  StateCost cost;
  cost.idle_bytes = bench::allocated_bytes_now() - start;
  const workload::KeyId new_moon[] = {0};  // the top trend, "NewMoon"
  const bloom::Tcbf genuine = im.make_genuine(new_moon);
  for (std::size_t n = 0; n < active; ++n) {
    im.absorb_genuine(static_cast<trace::NodeId>(n), genuine, new_moon,
                      util::kMinute);
    el.on_contact(static_cast<trace::NodeId>(n),
                  static_cast<trace::NodeId>((n + 1) % nodes), util::kMinute);
  }
  cost.active_bytes = bench::allocated_bytes_now() - start - cost.idle_bytes;
  return cost;
}

}  // namespace

int main() {
  using namespace bsub::bench;
  using namespace bsub;
  print_header("Memory comparison — TCBF vs raw strings (section VI-C)");

  const workload::KeySet keys = workload::twitter_trend_keys();
  const bloom::BloomParams params{256, 4};

  // Raw-string representation: the key bytes plus the per-key control
  // information a string list needs (1-byte length prefix per key, matching
  // the paper's "associated control information").
  const std::size_t raw_bytes = keys.total_key_bytes() + keys.size();

  bloom::Tcbf all(params, 50.0);
  for (const auto& k : keys) all.insert(k.name);

  const auto full = bloom::encode_tcbf(all, bloom::CounterEncoding::kFull);
  const auto uniform =
      bloom::encode_tcbf(all, bloom::CounterEncoding::kUniform);
  const auto bare =
      bloom::encode_tcbf(all, bloom::CounterEncoding::kCounterLess);

  std::printf("interest set: all %zu keys, %zu set bits of %zu\n",
              keys.size(), all.popcount(), params.m);
  std::printf("%-44s | %6s | %s\n", "representation", "bytes",
              "vs raw strings");
  std::printf("%-44s | %6zu | %s\n", "raw strings (+1B length each)",
              raw_bytes, "1.00x");
  auto row = [&](const char* label, std::size_t bytes) {
    std::printf("%-44s | %6zu | %.2fx\n", label, bytes,
                static_cast<double>(bytes) / static_cast<double>(raw_bytes));
  };
  row("TCBF, full counters (relay exchange)", full.size());
  row("TCBF, uniform counter (genuine filter)", uniform.size());
  row("TCBF, counter-less BF (interest report)", bare.size());

  std::printf("\nanalytical sizes (paper's section VI-C accounting, no "
              "header):\n");
  std::printf("  full:        %.0f bytes\n",
              bloom::model_wire_size_bytes(all.popcount(), params.m,
                                           bloom::CounterEncoding::kFull));
  std::printf("  uniform:     %.0f bytes\n",
              bloom::model_wire_size_bytes(all.popcount(), params.m,
                                           bloom::CounterEncoding::kUniform));
  std::printf("  counterless: %.0f bytes\n",
              bloom::model_wire_size_bytes(
                  all.popcount(), params.m,
                  bloom::CounterEncoding::kCounterLess));

  print_header("Resident state — eager (reference) vs lazy/pooled layout");
  constexpr std::size_t kNodes = 100000;
  constexpr std::size_t kActive = kNodes / 10;  // 10% ever participate
  const StateCost eager =
      measure_state(keys, kNodes, kActive, /*reference=*/true);
  const StateCost lazy =
      measure_state(keys, kNodes, kActive, /*reference=*/false);
  std::printf("%zu nodes, %zu active (interest + election state)\n", kNodes,
              kActive);
  std::printf("%-28s | %14s | %10s\n", "layout", "idle heap bytes",
              "bytes/node");
  auto state_row = [&](const char* label, const StateCost& c) {
    std::printf("%-28s | %14llu | %10.0f\n", label,
                static_cast<unsigned long long>(c.idle_bytes),
                static_cast<double>(c.idle_bytes) /
                    static_cast<double>(kNodes));
  };
  state_row("eager (historical)", eager);
  state_row("lazy/pooled", lazy);
  std::printf("idle floor ratio: %.1fx\n",
              static_cast<double>(eager.idle_bytes) /
                  static_cast<double>(lazy.idle_bytes));
  std::printf("activation cost:  %.0f bytes per active node (lazy; the "
              "eager layout\n                  pre-pays this for every "
              "node: %.0f measured on touch)\n",
              static_cast<double>(lazy.active_bytes) /
                  static_cast<double>(kActive),
              static_cast<double>(eager.active_bytes) /
                  static_cast<double>(kActive));

  std::printf("\npaper claim: the TCBF uses about half the space of raw "
              "strings; a single\ninterest costs <= 5 bytes (see "
              "table2_keys). Resident-state corollary: idle\nnodes cost "
              "slots, not filters — only materialized (ever-broker) state "
              "pays\nthe ~2 KiB TCBF.\n");
  return 0;
}
