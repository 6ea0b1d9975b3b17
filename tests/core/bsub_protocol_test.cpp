#include "core/bsub_protocol.h"

#include "core/df_tuning.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "core/protocol_registry.h"
#include "sim/simulator.h"
#include "testing/scenario.h"
#include "trace/synthetic.h"

namespace bsub::core {
namespace {

using bsub::testing::contact;
using bsub::testing::make_message;
using bsub::testing::two_keys;
using util::from_minutes;

/// A link with an effectively unlimited budget.
sim::Link big_link() { return sim::Link(util::kHour, 1e9); }

/// Config with the election neutralized so tests control roles directly.
BsubConfig pinned_roles_config() {
  BsubConfig cfg;
  cfg.broker_lower = 0;        // never promote
  cfg.broker_upper = 1000000;  // never demote
  cfg.df_per_minute = 0.0;     // no decay unless a test enables it
  return cfg;
}

/// Drives the protocol by hand: trace only provides node count.
struct Harness {
  workload::KeySet keys = two_keys();
  trace::ContactTrace trace;
  workload::Workload workload;
  metrics::Collector collector;
  BsubProtocol proto;

  Harness(std::size_t nodes, std::vector<workload::KeyId> interests,
          std::vector<workload::Message> messages,
          BsubConfig cfg = pinned_roles_config())
      : trace(nodes, {contact(0, 1, 0)}),  // placeholder contact
        workload(keys, nodes, std::move(interests), std::move(messages)),
        proto(cfg) {
    proto.on_start(trace, workload, collector);
  }

  void create_all_messages() {
    for (const auto& m : workload.messages()) {
      proto.on_message_created(m, m.created);
    }
  }

  void meet(trace::NodeId a, trace::NodeId b, double minute) {
    sim::Link link = big_link();
    proto.on_contact(a, b, from_minutes(minute), util::kHour, link);
  }

  /// A meeting whose link moves at most `bytes` in total.
  void meet_with_budget(trace::NodeId a, trace::NodeId b, double minute,
                        double bytes) {
    sim::Link link(util::kSecond, bytes);
    proto.on_contact(a, b, from_minutes(minute), util::kSecond, link);
  }
};

TEST(BsubProtocol, ConsumerInterestReachesBrokerRelay) {
  Harness h(2, {0, 1}, {});
  h.proto.election_mutable().set_broker(1, true);
  h.meet(0, 1, 1.0);
  // Node 0's interest (key 0 = "alpha") must now be in broker 1's relay.
  EXPECT_TRUE(
      h.proto.interests_mutable().relay(1, from_minutes(1)).contains("alpha"));
}

TEST(BsubProtocol, DirectProducerToConsumerDelivery) {
  Harness h(2, {0, 0}, {make_message(0, 0, 0)});
  h.create_all_messages();
  h.meet(0, 1, 5.0);
  auto r = h.collector.results();
  EXPECT_EQ(r.interested_deliveries, 1u);
  EXPECT_EQ(r.false_deliveries, 0u);
  EXPECT_NEAR(r.mean_delay_minutes, 5.0, 1e-9);
}

TEST(BsubProtocol, NonMatchingMessageNotDeliveredDirectly) {
  // Node 1 wants "beta"; producer has "alpha".
  Harness h(2, {0, 1}, {make_message(0, 0, 0)});
  h.create_all_messages();
  h.meet(0, 1, 5.0);
  EXPECT_EQ(h.collector.results().interested_deliveries, 0u);
}

TEST(BsubProtocol, ThreeHopPubSubPath) {
  // Nodes: 0 producer, 1 broker, 2 consumer (key 0). The consumer never
  // meets the producer; delivery must go through the broker.
  Harness h(3, {1, 1, 0}, {make_message(0, 0, 0)});
  h.proto.election_mutable().set_broker(1, true);
  h.create_all_messages();
  h.meet(2, 1, 1.0);   // interest propagation: consumer -> broker
  h.meet(0, 1, 10.0);  // pickup: producer -> broker
  h.meet(1, 2, 20.0);  // delivery: broker -> consumer
  auto r = h.collector.results();
  EXPECT_EQ(r.interested_deliveries, 1u);
  EXPECT_NEAR(r.mean_delay_minutes, 20.0, 1e-9);
  EXPECT_EQ(r.forwardings, 2u);  // pickup + delivery
  EXPECT_EQ(h.proto.false_injections(), 0u);
}

TEST(BsubProtocol, NoPickupWithoutPropagatedInterest) {
  // The broker's relay is empty: it must not pick anything up.
  Harness h(3, {1, 1, 0}, {make_message(0, 0, 0)});
  h.proto.election_mutable().set_broker(1, true);
  h.create_all_messages();
  h.meet(0, 1, 10.0);  // producer meets broker with empty relay
  EXPECT_EQ(h.collector.results().forwardings, 0u);
}

TEST(BsubProtocol, CopyLimitBoundsBrokerReplicas) {
  BsubConfig cfg = pinned_roles_config();
  cfg.copy_limit = 2;
  // Producer 0; brokers 1, 2, 3 all primed with consumer 4's interest.
  Harness h(5, {1, 1, 1, 1, 0}, {make_message(0, 0, 0)}, cfg);
  for (trace::NodeId b = 1; b <= 3; ++b) {
    h.proto.election_mutable().set_broker(b, true);
  }
  h.create_all_messages();
  for (trace::NodeId b = 1; b <= 3; ++b) h.meet(4, b, 1.0);  // interests
  for (trace::NodeId b = 1; b <= 3; ++b) h.meet(0, b, 10.0); // pickups
  // Only copy_limit pickups may happen.
  EXPECT_EQ(h.collector.results().forwardings, 2u);
  // After the limit, the producer forgot the message: a later direct meeting
  // with the consumer delivers nothing from the producer. The brokers still
  // deliver their copies.
  h.meet(0, 4, 20.0);
  EXPECT_EQ(h.collector.results().interested_deliveries, 0u);
  h.meet(1, 4, 30.0);
  EXPECT_EQ(h.collector.results().interested_deliveries, 1u);
}

TEST(BsubProtocol, PickupCutByTheLinkKeepsTheProducerBufferInIdOrder) {
  // Producer 0 holds five key-0 messages of 10 kB each; brokers 1 and 2 are
  // primed for key 0. A link that fits only some bodies stops the pickup
  // scan mid-buffer: exhausted entries must leave the producer, every
  // other entry must stay, and the buffer must stay in id order.
  for (const bool reference : {false, true}) {
    SCOPED_TRACE(reference ? "reference contact path" : "fast contact path");
    BsubConfig cfg = pinned_roles_config();
    cfg.copy_limit = 2;
    cfg.reference_contact_path = reference;
    constexpr std::uint32_t kBody = 10000;
    std::vector<workload::Message> msgs;
    for (int i = 0; i < 5; ++i) {
      msgs.push_back(make_message(0, 0, from_minutes(i), util::kDay, kBody));
    }
    // Nodes: 0 producer, 1 and 2 brokers, 3 and 4 consumers of key 0.
    Harness h(5, {1, 1, 1, 0, 0}, std::move(msgs), cfg);
    h.proto.election_mutable().set_broker(1, true);
    h.proto.election_mutable().set_broker(2, true);
    h.create_all_messages();
    std::vector<workload::MessageId> ids;
    for (const auto& m : h.workload.messages()) ids.push_back(m.id);
    h.meet(3, 1, 5.0);  // prime both brokers with key 0
    h.meet(3, 2, 5.0);

    // One body fits: broker 1 takes ids[0] (one copy left), then the scan
    // breaks at ids[1].
    h.meet_with_budget(0, 1, 10.0, 1.5 * kBody);
    ASSERT_EQ(h.proto.traffic().pickups, 1u);
    // Two bodies fit: broker 2 takes ids[0] (exhausted: it leaves the
    // producer) and ids[1] (one copy left), then breaks at ids[2].
    h.meet_with_budget(0, 2, 11.0, 2.5 * kBody);
    ASSERT_EQ(h.proto.traffic().pickups, 3u);

    // Direct delivery walks the producer buffer: everything but the
    // exhausted ids[0] is still there.
    h.meet(0, 4, 12.0);
    EXPECT_FALSE(h.collector.delivered(ids[0], 4));
    for (std::size_t i = 1; i < ids.size(); ++i) {
      EXPECT_TRUE(h.collector.delivered(ids[i], 4)) << "id " << ids[i];
    }
    // ...in id order: a link that fits one body delivers the lowest id.
    h.meet_with_budget(0, 3, 13.0, 1.5 * kBody);
    EXPECT_TRUE(h.collector.delivered(ids[1], 3));
    for (std::size_t i = 2; i < ids.size(); ++i) {
      EXPECT_FALSE(h.collector.delivered(ids[i], 3)) << "id " << ids[i];
    }
  }
}

TEST(BsubProtocol, ReportKeyMaskMatchesFilterProbesForEveryInterestSet) {
  // A 100-key universe (the mask spans two words) and a small filter, so
  // reports also answer some unsubscribed keys by Bloom false positive:
  // the mask must reproduce the filter's verdict, not the interest set.
  std::vector<workload::KeyInfo> infos;
  for (int k = 0; k < 100; ++k) {
    infos.push_back({"key-" + std::to_string(k), 0.01});
  }
  const workload::KeySet keys(std::move(infos));
  trace::SyntheticTraceConfig tcfg;
  tcfg.node_count = 60;
  tcfg.contact_count = 600;
  tcfg.duration = util::kDay;
  tcfg.seed = 5;
  const trace::ContactTrace t = trace::generate_trace(tcfg);
  workload::WorkloadConfig wcfg;
  wcfg.interests_per_node = 3;
  const workload::Workload w(t, keys, wcfg);

  const bloom::BloomParams params{64, 3};
  std::vector<util::IndexArray> key_indices;
  for (workload::KeyId k = 0; k < keys.size(); ++k) {
    key_indices.push_back(util::bloom_indices(keys.hash(k), params.k,
                                              params.m));
  }
  std::set<std::vector<workload::KeyId>> sets;
  for (trace::NodeId n = 0; n < w.node_count(); ++n) {
    const auto span = w.interests_of(n);
    std::vector<workload::KeyId> set(span.begin(), span.end());
    std::sort(set.begin(), set.end());
    sets.insert(set);
  }
  ASSERT_GT(sets.size(), 10u);
  bool high_word_hit = false;
  bool false_positive_seen = false;
  for (const auto& set : sets) {
    bloom::BloomFilter report(params);
    for (workload::KeyId k : set) report.insert(keys.hash(k));
    const util::DenseIdSet mask = report_key_mask(report, key_indices);
    for (workload::KeyId k = 0; k < keys.size(); ++k) {
      const bool probe = report.contains(keys.hash(k));
      ASSERT_EQ(mask.contains(k), probe) << "key " << k;
      ASSERT_EQ(mask.contains(k), report.contains_at(key_indices[k]));
      high_word_hit |= probe && k >= 64;
      false_positive_seen |=
          probe && !std::binary_search(set.begin(), set.end(), k);
    }
    EXPECT_FALSE(mask.contains(keys.size()));  // past the universe
  }
  EXPECT_TRUE(high_word_hit);
  EXPECT_TRUE(false_positive_seen);
}

TEST(BsubProtocol, DirectDeliveryDoesNotConsumeCopies) {
  BsubConfig cfg = pinned_roles_config();
  cfg.copy_limit = 1;
  // Producer 0, consumers 1 and 2, broker 3 primed by consumer 2.
  Harness h(4, {1, 0, 0, 1}, {make_message(0, 0, 0)}, cfg);
  h.proto.election_mutable().set_broker(3, true);
  h.create_all_messages();
  h.meet(1, 0, 1.0);  // direct delivery to consumer 1 (no copy spent)
  h.meet(2, 3, 2.0);  // consumer 2 primes broker 3
  h.meet(0, 3, 5.0);  // pickup still possible: copy budget intact
  h.meet(3, 2, 9.0);  // broker delivers to consumer 2
  EXPECT_EQ(h.collector.results().interested_deliveries, 2u);
}

TEST(BsubProtocol, BrokerExchangeMMergesRelays) {
  Harness h(3, {0, 1, 1}, {});
  h.proto.election_mutable().set_broker(1, true);
  h.proto.election_mutable().set_broker(2, true);
  h.meet(0, 1, 1.0);  // consumer 0 ("alpha") primes broker 1
  h.meet(1, 2, 5.0);  // broker-broker exchange
  EXPECT_TRUE(
      h.proto.interests_mutable().relay(2, from_minutes(5)).contains("alpha"));
}

TEST(BsubProtocol, PreferentialForwardingMovesMessageToBetterBroker) {
  // Broker 1 carries a message but broker 2 is closer to the consumer
  // (higher relay counter via repeated reinforcement).
  Harness h(4, {1, 1, 1, 0}, {make_message(0, 0, 0)});
  h.proto.election_mutable().set_broker(1, true);
  h.proto.election_mutable().set_broker(2, true);
  h.create_all_messages();
  h.meet(3, 1, 1.0);  // consumer primes broker 1 once
  h.meet(3, 2, 2.0);  // consumer primes broker 2 twice (stronger)
  h.meet(3, 2, 3.0);
  h.meet(0, 1, 10.0);  // producer -> broker 1 pickup
  ASSERT_EQ(h.collector.results().forwardings, 1u);
  h.meet(1, 2, 20.0);  // broker exchange: message should move to broker 2
  EXPECT_EQ(h.collector.results().forwardings, 2u);
  // Single custody: broker 1 dropped it; only broker 2 can deliver now.
  h.meet(1, 3, 25.0);
  EXPECT_EQ(h.collector.results().interested_deliveries, 0u);
  h.meet(2, 3, 30.0);
  EXPECT_EQ(h.collector.results().interested_deliveries, 1u);
}

TEST(BsubProtocol, NoBackwardForwardingBetweenBrokers) {
  // After the message moves 1 -> 2, a second meeting must not bounce it
  // back (reverse preference is negative).
  Harness h(4, {1, 1, 1, 0}, {make_message(0, 0, 0)});
  h.proto.election_mutable().set_broker(1, true);
  h.proto.election_mutable().set_broker(2, true);
  h.create_all_messages();
  h.meet(3, 2, 1.0);
  h.meet(3, 2, 2.0);
  h.meet(3, 1, 3.0);
  h.meet(0, 1, 10.0);
  h.meet(1, 2, 20.0);  // moves to 2
  auto before = h.collector.results().forwardings;
  h.meet(1, 2, 21.0);  // must not move again
  EXPECT_EQ(h.collector.results().forwardings, before);
}

TEST(BsubProtocol, DecayErasesStaleInterests) {
  BsubConfig cfg = pinned_roles_config();
  cfg.df_per_minute = 1.0;  // C=50 drains in 50 minutes
  Harness h(3, {1, 1, 0}, {make_message(0, 0, from_minutes(100))}, cfg);
  h.proto.election_mutable().set_broker(1, true);
  h.meet(2, 1, 1.0);  // consumer primes broker
  h.create_all_messages();
  h.meet(0, 1, 100.0);  // 99 minutes later: interest long gone, no pickup
  EXPECT_EQ(h.collector.results().forwardings, 0u);
}

TEST(BsubProtocol, ReinforcementKeepsInterestAliveUnderDecay) {
  BsubConfig cfg = pinned_roles_config();
  cfg.df_per_minute = 1.0;
  Harness h(3, {1, 1, 0}, {make_message(0, 0, from_minutes(100))}, cfg);
  h.proto.election_mutable().set_broker(1, true);
  // Consumer meets the broker every 30 minutes: counters pile up.
  for (int m = 0; m <= 90; m += 30) h.meet(2, 1, m);
  h.create_all_messages();
  h.meet(0, 1, 100.0);
  EXPECT_EQ(h.collector.results().forwardings, 1u);  // pickup happened
}

TEST(BsubProtocol, ExpiredMessagesPurgedEverywhere) {
  Harness h(3, {1, 1, 0},
            {make_message(0, 0, 0, /*ttl=*/from_minutes(15))});
  h.proto.election_mutable().set_broker(1, true);
  h.create_all_messages();
  h.meet(2, 1, 1.0);
  h.meet(0, 1, 5.0);  // picked up at t=5
  ASSERT_EQ(h.collector.results().forwardings, 1u);
  h.meet(1, 2, 30.0);  // expired at 15: no delivery
  EXPECT_EQ(h.collector.results().interested_deliveries, 0u);
}

TEST(BsubProtocol, ControlBytesAreAccounted) {
  Harness h(2, {0, 1}, {});
  h.proto.election_mutable().set_broker(1, true);
  h.meet(0, 1, 1.0);
  EXPECT_GT(h.collector.results().control_bytes, 0u);
}

TEST(BsubProtocol, RunsEndToEndOnSyntheticTrace) {
  trace::SyntheticTraceConfig tcfg;
  tcfg.node_count = 30;
  tcfg.contact_count = 6000;
  tcfg.duration = util::kDay;
  tcfg.seed = 77;
  auto t = trace::generate_trace(tcfg);
  auto keys = workload::twitter_trend_keys();
  workload::WorkloadConfig wcfg;
  wcfg.ttl = 6 * util::kHour;
  workload::Workload w(t, keys, wcfg);

  BsubConfig cfg;
  cfg.df_per_minute =
      compute_df(t, wcfg.ttl, cfg.filter_params, cfg.initial_counter)
          .df_per_minute;
  BsubProtocol proto(cfg);
  sim::Simulator sim;
  auto r = sim.run(t, w, proto);
  EXPECT_GT(r.delivery_ratio, 0.05);
  EXPECT_GT(r.forwardings, 0u);
  EXPECT_GT(proto.election().broker_count(), 0u);
}

TEST(BsubProtocol, DeterministicAcrossRuns) {
  trace::SyntheticTraceConfig tcfg;
  tcfg.node_count = 20;
  tcfg.contact_count = 3000;
  tcfg.duration = util::kDay;
  tcfg.seed = 88;
  auto t = trace::generate_trace(tcfg);
  auto keys = workload::twitter_trend_keys();
  workload::Workload w(t, keys, {});

  auto run_once = [&] {
    BsubProtocol proto;
    sim::Simulator sim;
    return sim.run(t, w, proto);
  };
  auto r1 = run_once();
  auto r2 = run_once();
  EXPECT_EQ(r1.interested_deliveries, r2.interested_deliveries);
  EXPECT_EQ(r1.forwardings, r2.forwardings);
  EXPECT_EQ(r1.false_deliveries, r2.false_deliveries);
  EXPECT_EQ(r1.control_bytes, r2.control_bytes);
  EXPECT_DOUBLE_EQ(r1.mean_delay_minutes, r2.mean_delay_minutes);
}

TEST(BsubProtocol, AdaptiveDfModeRunsAndDelivers) {
  trace::SyntheticTraceConfig tcfg;
  tcfg.node_count = 25;
  tcfg.contact_count = 4000;
  tcfg.duration = util::kDay;
  tcfg.seed = 91;
  auto t = trace::generate_trace(tcfg);
  auto keys = workload::twitter_trend_keys();
  workload::WorkloadConfig wcfg;
  wcfg.ttl = 6 * util::kHour;
  workload::Workload w(t, keys, wcfg);
  BsubConfig cfg;
  cfg.adaptive_df = true;
  cfg.df_window = wcfg.ttl;
  BsubProtocol proto(cfg);
  sim::Simulator sim;
  auto r = sim.run(t, w, proto);
  EXPECT_GT(r.interested_deliveries, 0u);
}

// Exact results of a small fixed B-SUB run, pinned so that changes to the
// relay ground-truth representation (or any other refactor of the core) are
// proven result-neutral. A 64-bit filter on a reduced Haggle-like trace with
// two interests per node saturates the relay filters enough to produce
// false injections, so the shadow bookkeeping is exercised on every path:
// absorb, M-merge, A-merge and per-broker adaptive DF. The relay FPR is
// compared bit for bit.
TEST(BsubProtocol, PinnedResultsOnReducedHaggle) {
  trace::SyntheticTraceConfig tcfg = trace::haggle_infocom06_config(11);
  tcfg.contact_count = 6000;
  const trace::ContactTrace t = trace::generate_trace(tcfg);
  const workload::KeySet keys = workload::twitter_trend_keys();
  workload::WorkloadConfig wcfg;
  wcfg.ttl = 6 * util::kHour;
  wcfg.interests_per_node = 2;
  const workload::Workload w(t, keys, wcfg);

  struct Pinned {
    const char* spec;
    std::uint64_t interested, falsely, forwardings, message_bytes,
        control_bytes, false_injections, pickups, broker_transfers,
        deliveries;
    double relay_fpr;
  };
  const Pinned cases[] = {
      {"B-SUB:m=64", 68926, 201, 221105, 15556950, 1139321, 2865, 62905,
       89274, 68926, 0.80166500719106093},
      {"B-SUB:m=64,merge=a", 63763, 220, 221075, 15549153, 1139347, 2773,
       62400, 94912, 63763, 0.80174798097134636},
      {"B-SUB:m=64,adaptive=1", 49681, 216, 218966, 15419817, 1139325, 2797,
       62374, 106911, 49681, 0.80166500719106093},
  };
  const sim::ProtocolRegistry registry = make_protocol_registry();
  for (const Pinned& p : cases) {
    for (std::size_t threads : {1, 2}) {
      SCOPED_TRACE(std::string(p.spec) + " threads=" +
                   std::to_string(threads));
      std::unique_ptr<sim::Protocol> proto = registry.make(p.spec);
      const auto& bsub = dynamic_cast<const BsubProtocol&>(*proto);
      sim::SimulatorConfig scfg;
      scfg.threads = threads;
      const metrics::RunResults r = sim::Simulator(scfg).run(t, w, *proto);
      EXPECT_EQ(r.interested_deliveries, p.interested);
      EXPECT_EQ(r.false_deliveries, p.falsely);
      EXPECT_EQ(r.forwardings, p.forwardings);
      EXPECT_EQ(r.message_bytes, p.message_bytes);
      EXPECT_EQ(r.control_bytes, p.control_bytes);
      EXPECT_EQ(bsub.false_injections(), p.false_injections);
      const BsubProtocol::TrafficBreakdown tb = bsub.traffic();
      EXPECT_EQ(tb.pickups, p.pickups);
      EXPECT_EQ(tb.broker_transfers, p.broker_transfers);
      EXPECT_EQ(tb.deliveries, p.deliveries);
      EXPECT_EQ(bsub.measured_relay_fpr(), p.relay_fpr);
    }
  }
}

}  // namespace
}  // namespace bsub::core
