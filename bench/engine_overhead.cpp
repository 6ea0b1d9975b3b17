// Extension: wire-level overhead of the live protocol engine.
//
// The paper's efficiency argument (sections IV-B, VI-C) is stated in
// analytic filter sizes; this bench measures what a real deployment would
// actually put on the air. It replays the same scenario through (a) the
// simulator, which charges the analytic encoded sizes, and (b) the live
// frame engine, where every exchange is a checksummed frame with headers
// and custody acks — and reports bytes per contact and per delivery.
#include "experiment_common.h"

#include "engine/trace_runner.h"

int main() {
  using namespace bsub::bench;
  using namespace bsub;
  print_header("Extension — live-engine wire overhead vs simulator accounting");

  // A conference-scale (but sub-Table-I) scenario keeps the run short.
  trace::SyntheticTraceConfig tcfg;
  tcfg.node_count = 40;
  tcfg.contact_count = 10000;
  tcfg.duration = util::kDay;
  tcfg.seed = kExperimentSeed;
  const trace::ContactTrace t = trace::generate_trace(tcfg);
  const workload::KeySet keys = workload::twitter_trend_keys();
  workload::WorkloadConfig wcfg;
  wcfg.ttl = 8 * util::kHour;
  wcfg.seed = kExperimentSeed + 1;
  const workload::Workload w(t, keys, wcfg);

  const util::Time ttl = wcfg.ttl;
  core::BsubConfig sim_cfg;
  sim_cfg.df_per_minute =
      core::compute_df(t, ttl, sim_cfg.filter_params, sim_cfg.initial_counter)
          .df_per_minute;

  core::BsubProtocol proto(sim_cfg);
  const metrics::RunResults sim_r = sim::Simulator().run(t, w, proto);

  engine::TraceRunner runner(sim_cfg);
  const engine::TraceRunResults eng_r = runner.run(t, w);

  const double contacts = static_cast<double>(t.contacts().size());
  std::printf("scenario: %zu nodes, %zu contacts, %zu messages, TTL = 8 h\n\n",
              t.node_count(), t.contacts().size(), w.messages().size());
  std::printf("%-34s | %12s | %12s\n", "", "simulator", "live engine");
  std::printf("%-34s | %12.3f | %12.3f\n", "delivery ratio",
              sim_r.delivery_ratio, eng_r.delivery_ratio);
  std::printf("%-34s | %12.1f | %12.1f\n", "mean delay (min)",
              sim_r.mean_delay_minutes, eng_r.mean_delay_minutes);
  std::printf("%-34s | %12.1f | %12.1f\n", "bytes per contact",
              static_cast<double>(sim_r.message_bytes + sim_r.control_bytes) /
                  contacts,
              static_cast<double>(eng_r.bytes_used) / contacts);
  std::printf("%-34s | %12.1f | %12.1f\n", "bytes per delivery",
              sim_r.interested_deliveries
                  ? static_cast<double>(sim_r.message_bytes +
                                        sim_r.control_bytes) /
                        static_cast<double>(sim_r.interested_deliveries)
                  : 0.0,
              eng_r.deliveries
                  ? static_cast<double>(eng_r.bytes_used) /
                        static_cast<double>(eng_r.deliveries)
                  : 0.0);
  std::printf("%-34s | %12s | %12.1f\n", "frames per contact", "-",
              static_cast<double>(eng_r.frames_delivered) / contacts);

  std::printf(
      "\nExpected: the engine costs a single-digit factor more than the "
      "analytic\naccounting — frame headers, checksums, custody acks, and "
      "above all re-offers\nto already-satisfied consumers (nodes keep no "
      "per-peer delivery memory) are\nthe price of running B-SUB on a real "
      "radio. Even so it stays in the low\nkilobytes per contact, under 0.1%% "
      "of a typical Bluetooth contact's budget,\nwith matching delivery "
      "ratios across the two substrates.\n");
  return 0;
}
