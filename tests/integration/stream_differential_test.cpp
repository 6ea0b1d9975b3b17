// Streamed-vs-materialized differential: running a lazy city ContactStream
// directly must be bit-identical to materializing the same stream into a
// ContactTrace and running that — on both execution substrates (the
// strategy-object simulator, serially and through the windowed parallel
// executor, and the live frame-driven engine, which replays serially),
// across many seeds.
//
// This is the enforcement half of ContactStream's ordering contract: a
// conforming generator yields the exact total order ContactTrace's
// constructor sorts into, so the event sequence — and therefore every
// semantic result field — cannot differ.
#include <gtest/gtest.h>

#include "core/bsub_protocol.h"
#include "engine/trace_runner.h"
#include "sim/simulator.h"
#include "trace/city.h"
#include "trace/contact_stream.h"
#include "workload/workload.h"

namespace bsub {
namespace {

constexpr std::uint64_t kSeeds[] = {11, 12, 13, 14, 15, 16, 17, 18, 19, 20};

trace::CityTraceConfig city_for(std::uint64_t seed) {
  trace::CityTraceConfig cfg;
  cfg.node_count = 300;
  cfg.contact_count = 4000;
  cfg.days = 1;
  cfg.seed = seed;
  return cfg;
}

void expect_equal(const metrics::RunResults& s, const metrics::RunResults& m,
                  std::uint64_t seed, std::size_t threads) {
  SCOPED_TRACE("simulator seed " + std::to_string(seed) + " threads " +
               std::to_string(threads));
  EXPECT_EQ(s.messages_created, m.messages_created);
  EXPECT_EQ(s.expected_deliveries, m.expected_deliveries);
  EXPECT_EQ(s.interested_deliveries, m.interested_deliveries);
  EXPECT_EQ(s.false_deliveries, m.false_deliveries);
  EXPECT_EQ(s.forwardings, m.forwardings);
  EXPECT_EQ(s.message_bytes, m.message_bytes);
  EXPECT_EQ(s.control_bytes, m.control_bytes);
  EXPECT_EQ(s.delivery_ratio, m.delivery_ratio);
  EXPECT_EQ(s.mean_delay_minutes, m.mean_delay_minutes);
  EXPECT_EQ(s.median_delay_minutes, m.median_delay_minutes);
  EXPECT_EQ(s.max_delay_minutes, m.max_delay_minutes);
  EXPECT_EQ(s.forwardings_per_delivery, m.forwardings_per_delivery);
  EXPECT_EQ(s.false_positive_rate, m.false_positive_rate);
}

void expect_equal(const engine::TraceRunResults& s,
                  const engine::TraceRunResults& m, std::uint64_t seed) {
  SCOPED_TRACE("engine seed " + std::to_string(seed));
  EXPECT_EQ(s.deliveries, m.deliveries);
  EXPECT_EQ(s.expected_deliveries, m.expected_deliveries);
  EXPECT_EQ(s.delivery_ratio, m.delivery_ratio);
  EXPECT_EQ(s.mean_delay_minutes, m.mean_delay_minutes);
  EXPECT_EQ(s.contacts_processed, m.contacts_processed);
  EXPECT_EQ(s.frames_delivered, m.frames_delivered);
  EXPECT_EQ(s.frames_dropped, m.frames_dropped);
  EXPECT_EQ(s.bytes_used, m.bytes_used);
}

TEST(StreamDifferential, SimulatorIsBitIdenticalStreamedVsMaterialized) {
  const workload::KeySet keys = workload::twitter_trend_keys();
  for (const std::uint64_t seed : kSeeds) {
    auto stream = trace::make_city_stream(city_for(seed));
    const trace::ContactTrace materialized = trace::materialize(*stream);
    ASSERT_FALSE(materialized.empty());

    workload::WorkloadConfig wcfg;
    wcfg.ttl = 6 * util::kHour;
    wcfg.seed = seed + 1;
    const workload::Workload w(materialized, keys, wcfg);

    core::BsubConfig cfg;
    cfg.df_per_minute = 0.5;

    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      sim::SimulatorConfig scfg;
      scfg.threads = threads;
      scfg.window_events = 256;  // several windows even at this size
      sim::Simulator simulator(scfg);

      stream->reset();
      core::BsubProtocol streamed_proto(cfg);
      const metrics::RunResults streamed =
          simulator.run(*stream, w, streamed_proto);
      const std::uint64_t streamed_events = simulator.last_run_stats().events;

      core::BsubProtocol materialized_proto(cfg);
      const metrics::RunResults from_trace =
          simulator.run(materialized, w, materialized_proto);

      expect_equal(streamed, from_trace, seed, threads);
      EXPECT_EQ(streamed_events, simulator.last_run_stats().events);
      // The runs must actually exercise the protocol, not compare two
      // empty scenarios.
      EXPECT_GT(streamed.messages_created, 0u);
      EXPECT_GT(streamed.forwardings, 0u);
    }
  }
}

TEST(StreamDifferential, TraceRunnerIsBitIdenticalStreamedVsMaterialized) {
  const workload::KeySet keys = workload::twitter_trend_keys();
  for (const std::uint64_t seed : kSeeds) {
    auto stream = trace::make_city_stream(city_for(seed));
    const trace::ContactTrace materialized = trace::materialize(*stream);

    workload::WorkloadConfig wcfg;
    wcfg.ttl = 6 * util::kHour;
    wcfg.seed = seed + 1;
    const workload::Workload w(materialized, keys, wcfg);

    core::BsubConfig node_cfg;
    node_cfg.df_per_minute = 0.5;

    engine::TraceRunner runner(node_cfg);
    stream->reset();
    const engine::TraceRunResults streamed = runner.run(*stream, w);
    const engine::TraceRunResults from_trace = runner.run(materialized, w);

    expect_equal(streamed, from_trace, seed);
    EXPECT_EQ(streamed.contacts_processed, materialized.contacts().size());
  }
}

}  // namespace
}  // namespace bsub
