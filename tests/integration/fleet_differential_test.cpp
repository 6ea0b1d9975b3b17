// Fleet loopback engine vs engine harness: live NodeRuntimes trading
// datagrams over loopback lanes (sessions, fragmentation, acks, budget
// charging at the datagram layer) must reproduce engine::TraceRunner *bit
// for bit* — delivery logs, frame tallies, byte usage, float summaries —
// across seeds, on two scenario shapes:
//
//   - single lane: 12 nodes x 600 contacts at threads = 1, the live replay
//     of a trace one contact at a time on one reactor;
//   - fleet scale: 1000 nodes x 8000 contacts sharded across >= 2 reactor
//     lanes.
//
// Custody sets (which nodes ever carried each message) are compared against
// a serial engine replay, so the messages traveled the same broker paths on
// both substrates.
//
// One deliberate knob: periodic decay ticks are disabled (decay_tick = 0,
// which loopback lanes require anyway) so both substrates decay TCBF
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

#include "core/df_tuning.h"
#include "engine/network.h"
#include "engine/trace_runner.h"
#include "net/fleet/fleet_runtime.h"
#include "trace/synthetic.h"
#include "workload/workload.h"

namespace bsub::net {
namespace {

/// One scenario family plus the lane count it runs at.
struct Shape {
  std::size_t nodes;
  std::size_t contacts;
  util::Time duration;
  std::size_t communities;
  util::Time ttl;
  double messages_per_minute;
  std::size_t threads;
};

constexpr Shape kSingleLane{12, 600, 8 * util::kHour, 5, 3 * util::kHour,
                            1.0 / 30.0, 1};
// The message population stays proportionate to the sparse contact plan
// (~8 contacts per node).
constexpr Shape kFleet{1000, 8000, 12 * util::kHour, 20, 6 * util::kHour,
                       1.0 / 1440.0, 2};

const core::BrokerElection::Config kElection{3, 5, 5 * util::kHour};

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

engine::NodeConfig node_config_for(const Scenario& s, const Shape& shape) {
  engine::NodeConfig cfg;
  cfg.df_per_minute = core::compute_df(s.trace, shape.ttl, cfg.filter_params,
                                       cfg.initial_counter)
                          .df_per_minute;
  return cfg;
}

FleetConfig fleet_config_for(engine::NodeConfig node_config,
                             const Shape& shape) {
  FleetConfig cfg;
  cfg.runtime.node = node_config;
  cfg.runtime.decay_tick = 0;  // see file header
  cfg.election = kElection;
  cfg.threads = shape.threads;
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
  EngineReplay(const Scenario& s, engine::NodeConfig node_config)
      : net_(node_config), election_(s.trace.node_count(), kElection) {
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
  const engine::NodeConfig node_config = node_config_for(s, shape);

  engine::TraceRunner runner(node_config, kElection);
  const engine::TraceRunResults expect = runner.run(s.trace, s.workload);
  ASSERT_GT(expect.deliveries, 0u);

  FleetRuntime fleet(fleet_config_for(node_config, shape));
  const FleetRunResults got = fleet.run_loopback(s.trace, s.workload);
  EXPECT_EQ(got.reactor_threads, shape.threads);

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
  const engine::NodeConfig node_config = node_config_for(s, shape);

  EngineReplay replay(s, node_config);

  FleetRuntime fleet(fleet_config_for(node_config, shape));
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

}  // namespace
}  // namespace bsub::net
