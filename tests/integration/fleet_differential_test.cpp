// Fleet loopback engine vs engine harness: live NodeRuntimes trading
// datagrams over the loopback lane (sessions, fragmentation, acks, budget
// charging at the datagram layer) must reproduce engine::TraceRunner *bit
// for bit* — delivery logs, frame tallies, byte usage, float summaries —
// across seeds, on two scenario shapes:
//
//   - single lane: 12 nodes x 600 contacts;
//   - fleet scale: 1000 nodes x 8000 contacts.
//
// Both replay a trace one contact at a time on one reactor.
//
// Custody sets (which nodes ever carried each message) are compared against
// a serial engine replay, so the messages traveled the same broker paths on
// both substrates.
//
// One deliberate knob: periodic decay ticks are disabled (decay_tick = 0,
// which the loopback replay requires anyway) so both substrates decay TCBF
// counters lazily over identical intervals. Splitting a decay interval
// across ticks changes the floating-point sum (df*t1 + df*t2 != df*(t1+t2)
// bitwise), which would perturb counter values without changing protocol
// semantics. Tick-driven decay is covered in
// tests/net/loopback_runtime_test.cpp.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "core/bsub_protocol.h"
#include "core/df_tuning.h"
#include "engine/network.h"
#include "engine/trace_runner.h"
#include "net/fleet/fleet_runtime.h"
#include "sim/simulator.h"
#include "trace/synthetic.h"
#include "workload/workload.h"

namespace bsub::net {
namespace {

/// One scenario family.
struct Shape {
  std::size_t nodes;
  std::size_t contacts;
  util::Time duration;
  std::size_t communities;
  util::Time ttl;
  double messages_per_minute;
};

constexpr Shape kSingleLane{12, 600, 8 * util::kHour, 5, 3 * util::kHour,
                            1.0 / 30.0};
// The message population stays proportionate to the sparse contact plan
// (~8 contacts per node).
constexpr Shape kFleet{1000, 8000, 12 * util::kHour, 20, 6 * util::kHour,
                       1.0 / 1440.0};

struct Scenario {
  trace::ContactTrace trace;
  workload::KeySet keys;
  workload::Workload workload;

  Scenario(const Shape& shape, std::uint64_t seed)
      : trace([&] {
          trace::SyntheticTraceConfig cfg;
          cfg.node_count = shape.nodes;
          cfg.contact_count = shape.contacts;
          cfg.duration = shape.duration;
          cfg.community_count = shape.communities;
          cfg.seed = seed;
          return trace::generate_trace(cfg);
        }()),
        keys(workload::twitter_trend_keys()), workload([&] {
          workload::WorkloadConfig wcfg;
          wcfg.ttl = shape.ttl;
          wcfg.base_rate_per_minute = shape.messages_per_minute;
          wcfg.seed = seed + 1;
          return workload::Workload(trace, keys, wcfg);
        }()) {}
};

core::BsubConfig node_config_for(const Scenario& s, const Shape& shape) {
  core::BsubConfig cfg;
  cfg.df_per_minute = core::compute_df(s.trace, shape.ttl, cfg.filter_params,
                                       cfg.initial_counter)
                          .df_per_minute;
  return cfg;
}

FleetConfig fleet_config_for(const core::BsubConfig& node_config) {
  FleetConfig cfg;
  cfg.runtime.node = node_config;
  cfg.runtime.decay_tick = 0;  // see file header
  return cfg;
}

using DeliveryTuple =
    std::tuple<engine::NodeId, std::uint64_t, std::string, util::Time>;

std::vector<DeliveryTuple> tuples(
    const std::vector<engine::DeliveryRecord>& records) {
  std::vector<DeliveryTuple> out;
  out.reserve(records.size());
  for (const auto& r : records) {
    out.emplace_back(r.consumer, r.message_id, r.key, r.at);
  }
  return out;
}

/// Serial engine replay that keeps its Network for custody introspection
/// (TraceRunner discards its Network at return).
class EngineReplay {
 public:
  EngineReplay(const Scenario& s, const core::BsubConfig& node_config)
      : net_(node_config),
        election_(s.trace.node_count(), core::election_config(node_config)) {
    net_.use_per_node_delivery_log(s.trace.node_count());
    for (trace::NodeId n = 0; n < s.trace.node_count(); ++n) {
      engine::BsubNode& node = net_.add_node(n);
      for (workload::KeyId k : s.workload.interests_of(n)) {
        node.subscribe(s.workload.keys().name(k));
      }
    }
    const auto& contacts = s.trace.contacts();
    const auto& messages = s.workload.messages();
    std::size_t ci = 0, mi = 0;
    while (ci < contacts.size() || mi < messages.size()) {
      const bool take_message =
          mi < messages.size() &&
          (ci >= contacts.size() ||
           messages[mi].created <= contacts[ci].start);
      if (take_message) {
        const workload::Message& m = messages[mi++];
        net_.node(m.producer)
            .publish(engine::content_message(s.workload, m), m.created);
        continue;
      }
      const trace::Contact& c = contacts[ci++];
      election_.on_contact(c.a, c.b, c.start);
      net_.node(c.a).set_broker(election_.is_broker(c.a));
      net_.node(c.b).set_broker(election_.is_broker(c.b));
      net_.contact(c.a, c.b, c.start, c.duration());
    }
  }

  engine::Network& net() { return net_; }

 private:
  engine::Network net_;
  core::BrokerElection election_;
};

/// Scalar results: integers exactly, floats bitwise (same summation order
/// over identical node-major delivery logs).
void expect_results_match(const Shape& shape, std::uint64_t seed) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  Scenario s(shape, seed);
  const core::BsubConfig node_config = node_config_for(s, shape);

  engine::TraceRunner runner(node_config);
  const engine::TraceRunResults expect = runner.run(s.trace, s.workload);
  ASSERT_GT(expect.deliveries, 0u);

  FleetRuntime fleet(fleet_config_for(node_config));
  const FleetRunResults got = fleet.run_loopback(s.trace, s.workload);
  EXPECT_EQ(got.reactor_threads, 1u);

  EXPECT_EQ(got.protocol.deliveries, expect.deliveries);
  EXPECT_EQ(got.protocol.expected_deliveries, expect.expected_deliveries);
  EXPECT_EQ(got.protocol.contacts_processed, expect.contacts_processed);
  EXPECT_EQ(got.protocol.frames_delivered, expect.frames_delivered);
  EXPECT_EQ(got.protocol.frames_dropped, expect.frames_dropped);
  EXPECT_EQ(got.protocol.bytes_used, expect.bytes_used);
  EXPECT_EQ(got.protocol.delivery_ratio, expect.delivery_ratio);
  EXPECT_EQ(got.protocol.mean_delay_minutes, expect.mean_delay_minutes);
}

/// Record-for-record delivery logs in the canonical node-major order, and
/// per-message custody sets: every message was ever carried by exactly the
/// same nodes on both substrates — same brokers, same relay paths.
void expect_logs_and_custody_match(const Shape& shape, std::uint64_t seed) {
  Scenario s(shape, seed);
  const core::BsubConfig node_config = node_config_for(s, shape);

  EngineReplay replay(s, node_config);

  FleetRuntime fleet(fleet_config_for(node_config));
  const FleetRunResults got = fleet.run_loopback(s.trace, s.workload);
  ASSERT_GT(got.protocol.deliveries, 0u);

  EXPECT_EQ(tuples(fleet.deliveries()), tuples(replay.net().deliveries()));

  std::set<std::uint64_t> message_ids;
  for (const workload::Message& m : s.workload.messages()) {
    message_ids.insert(m.id);
  }
  std::size_t custody_hops = 0;
  std::size_t mismatches = 0;
  for (std::uint64_t id : message_ids) {
    for (trace::NodeId n = 0; n < s.trace.node_count(); ++n) {
      const bool fleet_carried = fleet.node(n).ever_carried(id);
      if (fleet_carried != replay.net().node(n).ever_carried(id)) {
        ++mismatches;
      }
      custody_hops += fleet_carried ? 1u : 0u;
    }
  }
  EXPECT_EQ(mismatches, 0u);
  EXPECT_GT(custody_hops, 0u);  // the relay path was actually exercised
}

TEST(FleetDifferential, SingleLaneBitForBitVsTraceRunnerAcrossSeeds) {
  for (std::uint64_t seed : {101u, 202u, 303u, 404u, 505u, 606u}) {
    expect_results_match(kSingleLane, seed);
  }
}

TEST(FleetDifferential, SingleLaneDeliveryLogsAndCustodySetsMatch) {
  expect_logs_and_custody_match(kSingleLane, 707);
}

TEST(FleetDifferential, BitForBitVsTraceRunnerAcrossSeeds) {
  for (std::uint64_t seed : {11u, 22u, 33u, 44u, 55u, 66u}) {
    expect_results_match(kFleet, seed);
  }
}

TEST(FleetDifferential, DeliveryLogsAndCustodySetsMatch) {
  expect_logs_and_custody_match(kFleet, 77);
}

TEST(FleetDifferential, OneElectionMappingForEveryDriver) {
  // Non-default election knobs, read by every driver from the one
  // BsubConfig through core::election_config: the Simulator's B-SUB, the
  // fleet, and TraceRunner (bit-identical to the fleet, so it ran the same
  // election).
  const Scenario s(kSingleLane, 808);
  core::BsubConfig cfg = node_config_for(s, kSingleLane);
  cfg.broker_lower = 1;
  cfg.broker_upper = 2;
  cfg.election_window = util::kHour;
  cfg.reference_node_state = true;

  const core::BrokerElection::Config mapped = core::election_config(cfg);
  EXPECT_EQ(mapped.lower, 1u);
  EXPECT_EQ(mapped.upper, 2u);
  EXPECT_EQ(mapped.window, util::kHour);
  EXPECT_TRUE(mapped.reference_state);
  auto expect_mapped = [&](const core::BrokerElection::Config& got) {
    EXPECT_EQ(got.lower, mapped.lower);
    EXPECT_EQ(got.upper, mapped.upper);
    EXPECT_EQ(got.window, mapped.window);
    EXPECT_EQ(got.reference_state, mapped.reference_state);
  };

  core::BsubProtocol sim_bsub(cfg);
  sim::Simulator().run(s.trace, s.workload, sim_bsub);
  expect_mapped(sim_bsub.election().config());

  FleetRuntime fleet(fleet_config_for(cfg));
  const FleetRunResults got = fleet.run_loopback(s.trace, s.workload);
  expect_mapped(fleet.election().config());

  // Same roles node for node, and not the roles the default knobs elect.
  core::BsubProtocol default_bsub(node_config_for(s, kSingleLane));
  sim::Simulator().run(s.trace, s.workload, default_bsub);
  std::size_t differ_from_defaults = 0;
  for (trace::NodeId n = 0; n < s.trace.node_count(); ++n) {
    EXPECT_EQ(fleet.node(n).is_broker(), sim_bsub.election().is_broker(n))
        << "node " << n;
    if (sim_bsub.election().is_broker(n) !=
        default_bsub.election().is_broker(n)) {
      ++differ_from_defaults;
    }
  }
  EXPECT_GT(differ_from_defaults, 0u);

  const engine::TraceRunResults expect =
      engine::TraceRunner(cfg).run(s.trace, s.workload);
  EXPECT_EQ(got.protocol.deliveries, expect.deliveries);
  EXPECT_EQ(got.protocol.frames_delivered, expect.frames_delivered);
  EXPECT_EQ(got.protocol.bytes_used, expect.bytes_used);
  EXPECT_EQ(got.protocol.mean_delay_minutes, expect.mean_delay_minutes);
}

}  // namespace
}  // namespace bsub::net
