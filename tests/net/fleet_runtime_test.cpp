// FleetRuntime: the deterministic loopback engine must refuse what it
// cannot replay exactly; the real-time UDP engine must complete every
// contact and deliver end to end over real sockets. Bit-identity with engine::TraceRunner is checked in
// tests/integration/fleet_differential_test.cpp.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "core/df_tuning.h"
#include "net/fleet/fleet_runtime.h"
#include "trace/synthetic.h"
#include "util/errors.h"
#include "workload/workload.h"

namespace bsub::net {
namespace {

struct Scenario {
  trace::ContactTrace trace;
  workload::KeySet keys;
  workload::Workload workload;

  explicit Scenario(std::uint64_t seed, std::size_t nodes = 12,
                    std::size_t contacts = 600)
      : trace([&] {
          trace::SyntheticTraceConfig cfg;
          cfg.node_count = nodes;
          cfg.contact_count = contacts;
          cfg.duration = 8 * util::kHour;
          cfg.seed = seed;
          return trace::generate_trace(cfg);
        }()),
        keys(workload::twitter_trend_keys()), workload([&] {
          workload::WorkloadConfig wcfg;
          wcfg.ttl = 3 * util::kHour;
          wcfg.seed = seed + 1;
          return workload::Workload(trace, keys, wcfg);
        }()) {}
};

core::BsubConfig node_config_for(const Scenario& s) {
  core::BsubConfig cfg;
  cfg.df_per_minute = core::compute_df(s.trace, 3 * util::kHour,
                                       cfg.filter_params, cfg.initial_counter)
                          .df_per_minute;
  return cfg;
}

TEST(FleetRuntimeLoopback, RejectsDecayTicksAndSecondRuns) {
  Scenario s(303, 6, 40);
  FleetConfig cfg;
  cfg.runtime.decay_tick = util::kMinute;
  FleetRuntime bad(cfg);
  EXPECT_THROW(bad.run_loopback(s.trace, s.workload), util::ConfigError);

  FleetConfig good;
  good.runtime.node = node_config_for(s);
  good.runtime.decay_tick = 0;
  FleetRuntime fleet(good);
  fleet.run_loopback(s.trace, s.workload);
  EXPECT_THROW(fleet.run_loopback(s.trace, s.workload), std::logic_error);
}

TEST(FleetRuntime, RejectsWorkloadOfADifferentNodeCount) {
  Scenario s(404, 6, 40);
  const std::size_t nodes = s.trace.node_count() + 1;
  const workload::Workload wider(s.keys, nodes,
                                 std::vector<workload::KeyId>(nodes, 0), {});
  FleetConfig cfg;
  cfg.runtime.decay_tick = 0;
  FleetRuntime loopback(cfg);
  EXPECT_THROW(loopback.run_loopback(s.trace, wider), util::ConfigError);
  // The real-time engine refuses before it opens a socket.
  cfg.udp.base_port = 46230;
  FleetRuntime udp(cfg);
  EXPECT_THROW(udp.run_udp(s.trace, wider), util::ConfigError);
}

TEST(FleetRuntime, RejectsAdaptiveDfConfigHandedOverDirectly) {
  // No spec involved: the engine refuses adaptive DF when the fleet builds
  // its nodes, on both engines (the real-time one before any socket opens).
  Scenario s(505, 6, 40);
  FleetConfig cfg;
  cfg.runtime.node = node_config_for(s);
  cfg.runtime.node.adaptive_df = true;
  cfg.runtime.decay_tick = 0;
  FleetRuntime loopback(cfg);
  EXPECT_THROW(loopback.run_loopback(s.trace, s.workload), util::ConfigError);
  cfg.udp.base_port = 46240;
  FleetRuntime udp(cfg);
  EXPECT_THROW(udp.run_udp(s.trace, s.workload), util::ConfigError);
}

TEST(FleetRuntimeUdp, MiniScenarioDeliversOverRealSockets) {
  // Hand-built guaranteed delivery: node 0 publishes, node 1 subscribes to
  // the same key, they meet directly. Two shards exercise the cross-shard
  // path (0 and 1 home on different shards).
  const workload::KeySet keys = workload::twitter_trend_keys();
  std::vector<workload::KeyId> interests = {1, 0, 2, 3};
  std::vector<workload::Message> messages;
  workload::Message m;
  m.id = 1;
  m.key = 0;
  m.producer = 0;
  m.size_bytes = 64;
  m.created = 0;
  m.ttl = util::kHour;
  messages.push_back(m);
  workload::Workload workload(keys, 4, std::move(interests),
                              std::move(messages));

  std::vector<trace::Contact> contacts;
  for (int i = 0; i < 8; ++i) {
    trace::Contact c;
    c.a = static_cast<trace::NodeId>(i % 2 == 0 ? 0 : 2);
    c.b = static_cast<trace::NodeId>(i % 2 == 0 ? 1 : 3);
    c.start = util::kMinute + i * util::kMinute;
    c.end = c.start + util::kMinute;
    contacts.push_back(c);
  }
  trace::ContactTrace trace(4, std::move(contacts), "fleet-mini");

  FleetConfig cfg;
  cfg.runtime.decay_tick = 0;
  cfg.shards = 2;
  cfg.udp.base_port = 46210;
  cfg.udp.batched_io = fleet_udp_batched_available();
  cfg.contact_timeout = 5 * util::kSecond;
  FleetRuntime fleet(cfg);
  FleetRunResults results;
  try {
    results = fleet.run_udp(trace, workload);
  } catch (const std::runtime_error& e) {
    GTEST_SKIP() << "no loopback sockets here: " << e.what();
  }

  EXPECT_EQ(results.protocol.contacts_processed, 8u);
  EXPECT_GE(results.protocol.deliveries, 1u);
  EXPECT_GT(results.transport.frames_received, 0u);
  EXPECT_GT(results.datagrams_out, 0u);
  EXPECT_EQ(results.unroutable_drops, 0u);
  EXPECT_GT(results.wall_seconds, 0.0);
  EXPECT_GT(results.contacts_per_second, 0.0);
}

}  // namespace
}  // namespace bsub::net
