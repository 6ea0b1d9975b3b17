// Contact-loop fast path: reference vs. optimized hot loop.
//
// The simulator's inner loop (purge -> encode reports -> match -> transfer)
// is where every experiment binary spends its time. This bench pits the
// seed-faithful reference path (full purge scans, per-contact re-encoding,
// deep message copies; BsubConfig::reference_contact_path = true) against
// the fast path (expiry watermark + index, epoch-cached encodings, shared
// payloads, per-key filter verdicts) on the same synthetic scenario, and
// checks three things:
//
//   1. throughput: contacts/sec must improve by >= 2x,
//   2. semantics: the two paths produce identical RunResults (delivery
//      ratio, delay, deliveries, false deliveries, forwardings, bytes) and
//      identical B-SUB tallies (pickups, broker transfers, deliveries,
//      false injections, relay FPR),
//   3. allocation: the steady-state encode path (cache-hit case) performs
//      zero heap allocations per contact, verified by the shared
//      resource_stats.h new/delete counting hooks.
#define BSUB_RESOURCE_STATS_COUNT_ALLOCS
#include "resource_stats.h"

#include "experiment_common.h"

#include "bloom/tcbf_codec.h"
#include "engine/wire.h"

namespace {

using bsub::bench::allocs_now;

struct PathRun {
  bsub::bench::ProtocolRun run;
  std::uint64_t false_injections = 0;
  double seconds = 0.0;
  std::uint64_t allocs = 0;
};

PathRun run_path(const bsub::trace::ContactTrace& t,
                 const bsub::workload::Workload& w,
                 const bsub::core::BsubConfig& cfg, int reps) {
  using namespace bsub;
  PathRun best;
  best.seconds = 1e300;
  for (int r = 0; r < reps; ++r) {
    core::BsubProtocol proto(cfg);
    const std::uint64_t a0 = allocs_now();
    bench::WallTimer timer;
    metrics::RunResults results = sim::Simulator().run(t, w, proto);
    const double secs = timer.seconds();
    const std::uint64_t allocs = allocs_now() - a0;
    if (secs < best.seconds) {
      best.run.results = std::move(results);
      best.run.traffic = proto.traffic();
      best.run.relay_fpr = proto.measured_relay_fpr();
      best.false_injections = proto.false_injections();
      best.seconds = secs;
      best.allocs = allocs;
    }
  }
  return best;
}

/// Steady-state encode probe: with warm caches and unchanged filters, a
/// contact's outbound encodings must be pure cache hits with zero heap
/// allocations. Returns the allocation count over `iters` cache-hit rounds.
std::uint64_t steady_state_encode_allocs(std::size_t iters) {
  using namespace bsub;
  const bloom::BloomParams params{256, 4};
  bloom::BloomFilter interest(params);
  bloom::BloomFilter relay_report(params);
  bloom::Tcbf genuine(params, 50.0);
  bloom::Tcbf relay(params, 50.0);
  for (int i = 0; i < 8; ++i) {
    const util::HashPair hp = util::hash_pair("key-" + std::to_string(i));
    interest.insert(hp);
    relay_report.insert(hp);
    genuine.insert(hp);
    relay.insert(hp);
  }

  engine::FrameCache hello, gen, rel;
  bloom::EncodedFilterCache tcbf_cache, bloom_cache;
  // Warm every cache (the one allowed miss per epoch).
  engine::encode_hello_cached(1, true, interest, relay_report, hello);
  engine::encode_genuine_cached(1, genuine, gen);
  engine::encode_relay_cached(1, relay, rel);
  bloom::encode_tcbf_cached(relay, bloom::CounterEncoding::kFull, tcbf_cache);
  bloom::encode_bloom_cached(interest, bloom_cache);

  std::size_t checksum = 0;
  const std::uint64_t a0 = allocs_now();
  for (std::size_t i = 0; i < iters; ++i) {
    checksum +=
        engine::encode_hello_cached(1, true, interest, relay_report, hello)
            .size();
    checksum += engine::encode_genuine_cached(1, genuine, gen).size();
    checksum += engine::encode_relay_cached(1, relay, rel).size();
    checksum += bloom::encode_tcbf_cached(relay, bloom::CounterEncoding::kFull,
                                          tcbf_cache)
                    .size();
    checksum += bloom::encode_bloom_cached(interest, bloom_cache).size();
  }
  const std::uint64_t allocs = allocs_now() - a0;
  if (checksum == 0) std::abort();  // keep the loop observable
  return allocs;
}

}  // namespace

int main() {
  using namespace bsub::bench;
  using namespace bsub;
  print_header("Contact-loop fast path — reference vs optimized hot loop");
  WallTimer wall;

  trace::SyntheticTraceConfig tcfg;
  tcfg.name = "contact_loop";
  tcfg.node_count = 60;
  tcfg.contact_count = 60000;
  tcfg.duration = 3 * util::kDay;
  tcfg.seed = kExperimentSeed;
  const trace::ContactTrace t = trace::generate_trace(tcfg);
  const workload::KeySet keys = workload::twitter_trend_keys();
  workload::WorkloadConfig wcfg;
  wcfg.ttl = 6 * util::kHour;
  wcfg.seed = kExperimentSeed + 1;
  const workload::Workload w(t, keys, wcfg);

  core::BsubConfig cfg;
  cfg.df_per_minute =
      core::compute_df(t, wcfg.ttl, cfg.filter_params, cfg.initial_counter)
          .df_per_minute;

  constexpr int kReps = 3;
  core::BsubConfig ref_cfg = cfg;
  ref_cfg.reference_contact_path = true;
  const PathRun ref = run_path(t, w, ref_cfg, kReps);
  const PathRun fast = run_path(t, w, cfg, kReps);

  const double contacts = static_cast<double>(t.contacts().size());
  const double ref_cps = contacts / ref.seconds;
  const double fast_cps = contacts / fast.seconds;
  const double speedup = ref_cps > 0.0 ? fast_cps / ref_cps : 0.0;

  const metrics::RunResults& rr = ref.run.results;
  const metrics::RunResults& fr = fast.run.results;
  const bool semantics_match =
      rr.delivery_ratio == fr.delivery_ratio &&
      rr.mean_delay_minutes == fr.mean_delay_minutes &&
      rr.interested_deliveries == fr.interested_deliveries &&
      rr.false_deliveries == fr.false_deliveries &&
      rr.forwardings == fr.forwardings &&
      rr.message_bytes == fr.message_bytes &&
      rr.control_bytes == fr.control_bytes &&
      ref.run.traffic.pickups == fast.run.traffic.pickups &&
      ref.run.traffic.broker_transfers == fast.run.traffic.broker_transfers &&
      ref.run.traffic.deliveries == fast.run.traffic.deliveries &&
      ref.false_injections == fast.false_injections &&
      ref.run.relay_fpr == fast.run.relay_fpr;

  constexpr std::size_t kEncodeIters = 200000;
  const std::uint64_t encode_allocs = steady_state_encode_allocs(kEncodeIters);

  const metrics::HotPathStats& hp = fr.hot_path;
  const metrics::HotPathStats& ref_hp = rr.hot_path;

  std::printf("scenario: %zu nodes, %zu contacts, %zu messages, TTL = 6 h\n\n",
              t.node_count(), t.contacts().size(), w.messages().size());
  std::printf("%-34s | %14s | %14s\n", "", "reference", "fast path");
  std::printf("%-34s | %14.0f | %14.0f\n", "contacts/sec", ref_cps, fast_cps);
  std::printf("%-34s | %14.1f | %14.1f\n", "heap allocs per contact",
              static_cast<double>(ref.allocs) / contacts,
              static_cast<double>(fast.allocs) / contacts);
  std::printf("%-34s | %14.3f | %14.3f\n", "delivery ratio",
              ref.run.results.delivery_ratio, fast.run.results.delivery_ratio);
  std::printf("%-34s | %14llu | %14llu\n", "message bytes",
              static_cast<unsigned long long>(ref.run.results.message_bytes),
              static_cast<unsigned long long>(fast.run.results.message_bytes));
  std::printf("%-34s | %14llu | %14llu\n", "control bytes",
              static_cast<unsigned long long>(ref.run.results.control_bytes),
              static_cast<unsigned long long>(fast.run.results.control_bytes));
  std::printf("\nspeedup: %.2fx (floor: 2x)   semantics identical: %s\n",
              speedup, semantics_match ? "yes" : "NO");
  std::printf("steady-state encode allocs over %zu cache-hit rounds: %llu\n",
              kEncodeIters, static_cast<unsigned long long>(encode_allocs));
  std::printf(
      "fast-path counters: %llu purge scans skipped / %llu run, "
      "%llu encode cache hits / %llu misses, "
      "%llu payload copies avoided / %llu made\n",
      static_cast<unsigned long long>(hp.purge_scans_skipped),
      static_cast<unsigned long long>(hp.purge_scans_run),
      static_cast<unsigned long long>(hp.encode_cache_hits),
      static_cast<unsigned long long>(hp.encode_cache_misses),
      static_cast<unsigned long long>(hp.payload_copies_avoided),
      static_cast<unsigned long long>(hp.payload_copies_made));
  std::printf(
      "scan counters (fast / reference): entries visited by delivery "
      "%llu / %llu, pickup %llu / %llu, ranking %llu / %llu; "
      "filter probes %llu / %llu\n",
      static_cast<unsigned long long>(hp.delivery_entries_scanned),
      static_cast<unsigned long long>(ref_hp.delivery_entries_scanned),
      static_cast<unsigned long long>(hp.pickup_entries_scanned),
      static_cast<unsigned long long>(ref_hp.pickup_entries_scanned),
      static_cast<unsigned long long>(hp.ranking_entries_scanned),
      static_cast<unsigned long long>(ref_hp.ranking_entries_scanned),
      static_cast<unsigned long long>(hp.filter_probes),
      static_cast<unsigned long long>(ref_hp.filter_probes));

  std::vector<std::string> points;
  points.push_back(
      JsonObject()
          .field("path", std::string("reference"))
          .field("contacts_per_sec", ref_cps)
          .field("seconds", ref.seconds)
          .field("allocs", ref.allocs)
          .field("allocs_per_contact", static_cast<double>(ref.allocs) /
                                           contacts)
          .field("message_bytes", ref.run.results.message_bytes)
          .field("control_bytes", ref.run.results.control_bytes)
          .field("delivery_ratio", ref.run.results.delivery_ratio)
          .field("delivery_entries_scanned", ref_hp.delivery_entries_scanned)
          .field("pickup_entries_scanned", ref_hp.pickup_entries_scanned)
          .field("ranking_entries_scanned", ref_hp.ranking_entries_scanned)
          .field("filter_probes", ref_hp.filter_probes)
          .str());
  points.push_back(
      JsonObject()
          .field("path", std::string("fast"))
          .field("contacts_per_sec", fast_cps)
          .field("seconds", fast.seconds)
          .field("allocs", fast.allocs)
          .field("allocs_per_contact", static_cast<double>(fast.allocs) /
                                           contacts)
          .field("message_bytes", fast.run.results.message_bytes)
          .field("control_bytes", fast.run.results.control_bytes)
          .field("delivery_ratio", fast.run.results.delivery_ratio)
          .field("speedup", speedup)
          .field("semantics_match", std::string(semantics_match ? "yes" : "no"))
          .field("steady_state_encode_allocs", encode_allocs)
          .field("steady_state_encode_iters",
                 static_cast<std::uint64_t>(kEncodeIters))
          .field("peak_rss_bytes", bsub::bench::peak_rss_bytes())
          .field("purge_scans_skipped", hp.purge_scans_skipped)
          .field("purge_scans_run", hp.purge_scans_run)
          .field("encode_cache_hits", hp.encode_cache_hits)
          .field("encode_cache_misses", hp.encode_cache_misses)
          .field("payload_copies_avoided", hp.payload_copies_avoided)
          .field("payload_copies_made", hp.payload_copies_made)
          .field("delivery_entries_scanned", hp.delivery_entries_scanned)
          .field("pickup_entries_scanned", hp.pickup_entries_scanned)
          .field("ranking_entries_scanned", hp.ranking_entries_scanned)
          .field("filter_probes", hp.filter_probes)
          .str());
  write_bench_json("contact_loop", wall.seconds(), points);

  return (speedup >= 2.0 && semantics_match && encode_allocs == 0) ? 0 : 1;
}
