// Lazy/pooled-vs-eager node-state differential: the lazy, pooled,
// cache-dense per-node layouts (lazy relay materialization, pooled ring +
// open-addressing election state, deduplicated interest-filter caches)
// must be bit-identical to the retained eager reference layouts — on both
// execution substrates (the strategy-object simulator, serially and
// through the windowed parallel executor, and the live frame-driven
// engine, which replays serially), across many seeds.
//
// This is the enforcement half of the memory-floor work's contract: the
// compact layouts change where bytes live, never what the protocol
// computes. Every semantic result field must match exactly, including the
// float-valued ones (the compact election replays the reference's exact
// floating-point add/subtract order on the degree sum).
#include <gtest/gtest.h>

#include "core/bsub_protocol.h"
#include "engine/trace_runner.h"
#include "sim/simulator.h"
#include "trace/city.h"
#include "trace/contact_stream.h"
#include "workload/workload.h"

namespace bsub {
namespace {

constexpr std::uint64_t kSeeds[] = {31, 32, 33, 34, 35, 36, 37, 38, 39, 40};

trace::CityTraceConfig city_for(std::uint64_t seed) {
  trace::CityTraceConfig cfg;
  cfg.node_count = 300;
  cfg.contact_count = 4000;
  cfg.days = 1;
  cfg.seed = seed;
  return cfg;
}

void expect_equal(const metrics::RunResults& lazy,
                  const metrics::RunResults& eager, std::uint64_t seed,
                  std::size_t threads) {
  SCOPED_TRACE("simulator seed " + std::to_string(seed) + " threads " +
               std::to_string(threads));
  EXPECT_EQ(lazy.messages_created, eager.messages_created);
  EXPECT_EQ(lazy.expected_deliveries, eager.expected_deliveries);
  EXPECT_EQ(lazy.interested_deliveries, eager.interested_deliveries);
  EXPECT_EQ(lazy.false_deliveries, eager.false_deliveries);
  EXPECT_EQ(lazy.forwardings, eager.forwardings);
  EXPECT_EQ(lazy.message_bytes, eager.message_bytes);
  EXPECT_EQ(lazy.control_bytes, eager.control_bytes);
  EXPECT_EQ(lazy.delivery_ratio, eager.delivery_ratio);
  EXPECT_EQ(lazy.mean_delay_minutes, eager.mean_delay_minutes);
  EXPECT_EQ(lazy.median_delay_minutes, eager.median_delay_minutes);
  EXPECT_EQ(lazy.max_delay_minutes, eager.max_delay_minutes);
  EXPECT_EQ(lazy.forwardings_per_delivery, eager.forwardings_per_delivery);
  EXPECT_EQ(lazy.false_positive_rate, eager.false_positive_rate);
}

void expect_equal(const engine::TraceRunResults& lazy,
                  const engine::TraceRunResults& eager, std::uint64_t seed) {
  SCOPED_TRACE("engine seed " + std::to_string(seed));
  EXPECT_EQ(lazy.deliveries, eager.deliveries);
  EXPECT_EQ(lazy.expected_deliveries, eager.expected_deliveries);
  EXPECT_EQ(lazy.delivery_ratio, eager.delivery_ratio);
  EXPECT_EQ(lazy.mean_delay_minutes, eager.mean_delay_minutes);
  EXPECT_EQ(lazy.contacts_processed, eager.contacts_processed);
  EXPECT_EQ(lazy.frames_delivered, eager.frames_delivered);
  EXPECT_EQ(lazy.frames_dropped, eager.frames_dropped);
  EXPECT_EQ(lazy.bytes_used, eager.bytes_used);
}

TEST(NodeStateDifferential, SimulatorIsBitIdenticalLazyVsEager) {
  const workload::KeySet keys = workload::twitter_trend_keys();
  for (const std::uint64_t seed : kSeeds) {
    auto stream = trace::make_city_stream(city_for(seed));
    const trace::ContactTrace trace = trace::materialize(*stream);
    ASSERT_FALSE(trace.empty());

    workload::WorkloadConfig wcfg;
    wcfg.ttl = 6 * util::kHour;
    wcfg.seed = seed + 1;
    const workload::Workload w(trace, keys, wcfg);

    core::BsubConfig lazy_cfg;
    lazy_cfg.df_per_minute = 0.5;
    core::BsubConfig eager_cfg = lazy_cfg;
    eager_cfg.reference_node_state = true;

    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      sim::SimulatorConfig scfg;
      scfg.threads = threads;
      scfg.window_events = 256;  // several windows even at this size
      sim::Simulator simulator(scfg);

      core::BsubProtocol lazy_proto(lazy_cfg);
      const metrics::RunResults lazy = simulator.run(trace, w, lazy_proto);

      core::BsubProtocol eager_proto(eager_cfg);
      const metrics::RunResults eager = simulator.run(trace, w, eager_proto);

      expect_equal(lazy, eager, seed, threads);
      EXPECT_EQ(lazy_proto.false_injections(), eager_proto.false_injections());
      EXPECT_EQ(lazy_proto.traffic().pickups, eager_proto.traffic().pickups);
      EXPECT_EQ(lazy_proto.traffic().broker_transfers,
                eager_proto.traffic().broker_transfers);
      EXPECT_EQ(lazy_proto.traffic().deliveries,
                eager_proto.traffic().deliveries);
      // The runs must exercise the protocol and the laziness must bite:
      // some relays materialize (brokers exist), most nodes' never do.
      EXPECT_GT(lazy.messages_created, 0u);
      EXPECT_GT(lazy.forwardings, 0u);
      EXPECT_GT(lazy_proto.interests().materialized_relays(), 0u);
      EXPECT_LT(lazy_proto.interests().materialized_relays(),
                trace.node_count());
    }
  }
}

TEST(NodeStateDifferential, TraceRunnerIsBitIdenticalLazyVsEager) {
  const workload::KeySet keys = workload::twitter_trend_keys();
  for (const std::uint64_t seed : kSeeds) {
    auto stream = trace::make_city_stream(city_for(seed));
    const trace::ContactTrace trace = trace::materialize(*stream);

    workload::WorkloadConfig wcfg;
    wcfg.ttl = 6 * util::kHour;
    wcfg.seed = seed + 1;
    const workload::Workload w(trace, keys, wcfg);

    core::BsubConfig node_cfg;
    node_cfg.df_per_minute = 0.5;

    core::BsubConfig eager_cfg = node_cfg;
    eager_cfg.reference_node_state = true;
    const engine::TraceRunResults lazy =
        engine::TraceRunner(node_cfg).run(trace, w);
    const engine::TraceRunResults eager =
        engine::TraceRunner(eager_cfg).run(trace, w);

    expect_equal(lazy, eager, seed);
    EXPECT_EQ(lazy.contacts_processed, trace.contacts().size());
  }
}

}  // namespace
}  // namespace bsub
