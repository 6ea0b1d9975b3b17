// Cross-substrate validation: the live frame-driven engine replaying a
// scenario must agree qualitatively with the strategy-object simulator
// running core::BsubProtocol on the same scenario.
#include "engine/trace_runner.h"

#include <gtest/gtest.h>

#include "core/bsub_protocol.h"
#include "core/df_tuning.h"
#include "sim/simulator.h"
#include "trace/synthetic.h"
#include "util/errors.h"

namespace bsub::engine {
namespace {

struct Scenario {
  trace::ContactTrace trace;
  workload::KeySet keys;
  workload::Workload workload;

  explicit Scenario(std::uint64_t seed)
      : trace([&] {
          trace::SyntheticTraceConfig cfg;
          cfg.node_count = 25;
          cfg.contact_count = 4000;
          cfg.duration = util::kDay;
          cfg.seed = seed;
          return trace::generate_trace(cfg);
        }()),
        keys(workload::twitter_trend_keys()), workload([&] {
          workload::WorkloadConfig wcfg;
          wcfg.ttl = 6 * util::kHour;
          wcfg.seed = seed + 1;
          return workload::Workload(trace, keys, wcfg);
        }()) {}
};

core::BsubConfig node_config_for(const Scenario& s, util::Time ttl) {
  core::BsubConfig cfg;
  cfg.df_per_minute =
      core::compute_df(s.trace, ttl, cfg.filter_params, cfg.initial_counter)
          .df_per_minute;
  return cfg;
}

TEST(TraceRunner, DeliversOnRealScenario) {
  Scenario s(71);
  TraceRunner runner(node_config_for(s, 6 * util::kHour));
  TraceRunResults r = runner.run(s.trace, s.workload);
  EXPECT_EQ(r.contacts_processed, s.trace.contacts().size());
  EXPECT_GT(r.deliveries, 0u);
  EXPECT_GT(r.delivery_ratio, 0.05);
  EXPECT_LE(r.delivery_ratio, 1.0);
  EXPECT_GT(r.frames_delivered, r.deliveries);
  EXPECT_GT(r.bytes_used, 0u);
}

TEST(TraceRunner, IsDeterministic) {
  Scenario s(72);
  core::BsubConfig cfg = node_config_for(s, 6 * util::kHour);
  TraceRunner runner(cfg);
  TraceRunResults a = runner.run(s.trace, s.workload);
  TraceRunResults b = runner.run(s.trace, s.workload);
  EXPECT_EQ(a.deliveries, b.deliveries);
  EXPECT_EQ(a.frames_delivered, b.frames_delivered);
  EXPECT_EQ(a.bytes_used, b.bytes_used);
  EXPECT_DOUBLE_EQ(a.mean_delay_minutes, b.mean_delay_minutes);
}

TEST(TraceRunner, AgreesWithSimulatorSubstrate) {
  // The engine charges real frame bytes and the simulator charges analytic
  // sizes, and their handshake granularity differs slightly — but both run
  // the same protocol on the same scenario, so the delivery ratios must
  // land in the same neighborhood and far from the baselines.
  Scenario s(73);
  const util::Time ttl = 6 * util::kHour;

  TraceRunner runner(node_config_for(s, ttl));
  TraceRunResults engine_r = runner.run(s.trace, s.workload);

  core::BsubConfig sim_cfg;
  sim_cfg.df_per_minute =
      core::compute_df(s.trace, ttl, sim_cfg.filter_params,
                       sim_cfg.initial_counter)
          .df_per_minute;
  core::BsubProtocol proto(sim_cfg);
  metrics::RunResults sim_r = sim::Simulator().run(s.trace, s.workload, proto);

  EXPECT_NEAR(engine_r.delivery_ratio, sim_r.delivery_ratio, 0.15);
  // Delays in the same regime too (minutes-scale agreement).
  if (engine_r.deliveries > 0 && sim_r.interested_deliveries > 0) {
    EXPECT_NEAR(engine_r.mean_delay_minutes, sim_r.mean_delay_minutes,
                0.6 * std::max(engine_r.mean_delay_minutes,
                               sim_r.mean_delay_minutes));
  }
}

TEST(TraceRunner, StarvedBandwidthDropsFrames) {
  Scenario s(74);
  TraceRunner runner(node_config_for(s, 6 * util::kHour),
                     /*bandwidth=*/30.0);  // bytes per second: brutal
  TraceRunResults r = runner.run(s.trace, s.workload);
  EXPECT_GT(r.frames_dropped, 0u);
}

TEST(TraceRunner, EmptyWorkloadDeliversNothing) {
  Scenario s(75);
  workload::Workload empty(s.keys, s.trace.node_count(),
                           std::vector<workload::KeyId>(
                               s.trace.node_count(), 0),
                           {});
  TraceRunner runner(node_config_for(s, 6 * util::kHour));
  TraceRunResults r = runner.run(s.trace, empty);
  EXPECT_EQ(r.deliveries, 0u);
  EXPECT_EQ(r.expected_deliveries, 0u);
}

TEST(TraceRunner, RejectsWorkloadOfADifferentNodeCount) {
  Scenario s(17);
  const std::size_t nodes = s.trace.node_count() + 1;
  const workload::Workload wider(s.keys, nodes,
                                 std::vector<workload::KeyId>(nodes, 0), {});
  TraceRunner runner(core::BsubConfig{});
  EXPECT_THROW(runner.run(s.trace, wider), util::ConfigError);
}

TEST(TraceRunner, RejectsAdaptiveDfConfigHandedOverDirectly) {
  // No spec involved: the engine itself refuses a config it cannot run
  // (it has no online DF estimator) instead of silently running a fixed DF.
  Scenario s(18);
  core::BsubConfig cfg = node_config_for(s, 6 * util::kHour);
  cfg.adaptive_df = true;
  TraceRunner runner(cfg);
  EXPECT_THROW(runner.run(s.trace, s.workload), util::ConfigError);
}

}  // namespace
}  // namespace bsub::engine
