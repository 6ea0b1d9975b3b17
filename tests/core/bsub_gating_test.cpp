// Tests for the reverse-path delivery gating (section V-C), the
// carried_ever loop prevention in broker-to-broker forwarding, and the
// false-injection flag riding a copy's custody.
#include <gtest/gtest.h>

#include <string>

#include "core/bsub_protocol.h"
#include "sim/simulator.h"
#include "testing/scenario.h"

namespace bsub::core {
namespace {

using bsub::testing::contact;
using bsub::testing::make_message;
using bsub::testing::two_keys;
using util::from_minutes;

struct Harness {
  workload::KeySet keys;
  trace::ContactTrace trace;
  workload::Workload workload;
  metrics::Collector collector;
  BsubProtocol proto;

  Harness(std::size_t nodes, std::vector<workload::KeyId> interests,
          std::vector<workload::Message> messages, BsubConfig cfg,
          workload::KeySet key_set = two_keys())
      : keys(std::move(key_set)),
        trace(nodes, {contact(0, 1, 0)}),
        workload(keys, nodes, std::move(interests), std::move(messages)),
        proto(cfg) {
    proto.on_start(trace, workload, collector);
    for (const auto& m : workload.messages()) {
      proto.on_message_created(m, m.created);
    }
  }

  void meet(trace::NodeId a, trace::NodeId b, double minute) {
    sim::Link link(util::kHour, 1e9);
    proto.on_contact(a, b, from_minutes(minute), util::kHour, link);
  }

  /// A meeting whose link moves at most `bytes` in total.
  void meet_with_budget(trace::NodeId a, trace::NodeId b, double minute,
                        double bytes) {
    sim::Link link(util::kSecond, bytes);
    proto.on_contact(a, b, from_minutes(minute), util::kSecond, link);
  }
};

BsubConfig pinned(double df, bool gating) {
  BsubConfig cfg;
  cfg.broker_lower = 0;
  cfg.broker_upper = 1000000;
  cfg.df_per_minute = df;
  cfg.relay_gated_delivery = gating;
  return cfg;
}

TEST(RelayGating, StaleRouteMutesCarriedCopy) {
  // Broker 1 picks up a message while the route is fresh, but by the time
  // it meets the consumer the interest has decayed out of its relay: the
  // copy must not be offered.
  Harness h(3, {1, 1, 0}, {make_message(0, 0, 0)},
            pinned(/*df=*/1.0, /*gating=*/true));
  h.proto.election_mutable().set_broker(1, true);
  h.meet(2, 1, 1.0);   // consumer primes broker (counter 50, ~50 min life)
  h.meet(0, 1, 10.0);  // pickup while alive
  ASSERT_EQ(h.collector.results().forwardings, 1u);
  h.meet(1, 2, 80.0);  // relay decayed at t=51: gated, no delivery
  EXPECT_EQ(h.collector.results().interested_deliveries, 0u);
}

TEST(RelayGating, FreshRouteDelivers) {
  Harness h(3, {1, 1, 0}, {make_message(0, 0, 0)},
            pinned(/*df=*/1.0, /*gating=*/true));
  h.proto.election_mutable().set_broker(1, true);
  h.meet(2, 1, 1.0);
  h.meet(0, 1, 10.0);
  h.meet(1, 2, 30.0);  // relay still holds the key (counter ~21)
  EXPECT_EQ(h.collector.results().interested_deliveries, 1u);
}

TEST(RelayGating, OneVerdictCoversEveryCopyOfAKey) {
  // Broker 1 carries three copies of key 0. The relay gate is one verdict
  // per key for the whole scan: shut, no copy is offered; open, every copy
  // is offered, lowest id first.
  constexpr std::uint32_t kBody = 10000;
  for (const bool reference : {false, true}) {
    for (const bool open : {false, true}) {
      SCOPED_TRACE(std::string(reference ? "reference" : "fast") +
                   (open ? " path, gate open" : " path, gate shut"));
      BsubConfig cfg = pinned(/*df=*/1.0, /*gating=*/true);
      cfg.reference_contact_path = reference;
      Harness h(3, {1, 1, 0},
                {make_message(0, 0, 0, util::kDay, kBody),
                 make_message(0, 0, 1, util::kDay, kBody),
                 make_message(0, 0, 2, util::kDay, kBody)},
                cfg);
      h.proto.election_mutable().set_broker(1, true);
      h.meet(2, 1, 1.0);   // consumer primes broker (~50 min route)
      h.meet(0, 1, 10.0);  // all three copies picked up
      ASSERT_EQ(h.proto.traffic().pickups, 3u);
      std::vector<workload::MessageId> ids;
      for (const auto& m : h.workload.messages()) ids.push_back(m.id);

      if (!open) {
        h.meet(1, 2, 80.0);  // route decayed at t=51: every copy muted
        EXPECT_EQ(h.proto.traffic().deliveries, 0u);
        continue;
      }
      // Room for two bodies: the two lowest ids go first.
      h.meet_with_budget(1, 2, 30.0, 2.5 * kBody);
      EXPECT_TRUE(h.collector.delivered(ids[0], 2));
      EXPECT_TRUE(h.collector.delivered(ids[1], 2));
      EXPECT_FALSE(h.collector.delivered(ids[2], 2));
      h.meet(1, 2, 31.0);  // and the last one on the next meeting
      EXPECT_TRUE(h.collector.delivered(ids[2], 2));
      EXPECT_EQ(h.proto.traffic().deliveries, 3u);
    }
  }
}

TEST(RelayGating, DisablingGatingRestoresDelivery) {
  Harness h(3, {1, 1, 0}, {make_message(0, 0, 0)},
            pinned(/*df=*/1.0, /*gating=*/false));
  h.proto.election_mutable().set_broker(1, true);
  h.meet(2, 1, 1.0);
  h.meet(0, 1, 10.0);
  h.meet(1, 2, 80.0);  // stale route, but gating is off
  EXPECT_EQ(h.collector.results().interested_deliveries, 1u);
}

TEST(RelayGating, ReinforcementReopensTheRoute) {
  Harness h(3, {1, 1, 0}, {make_message(0, 0, 0)},
            pinned(/*df=*/1.0, /*gating=*/true));
  h.proto.election_mutable().set_broker(1, true);
  h.meet(2, 1, 1.0);
  h.meet(0, 1, 10.0);
  h.meet(2, 1, 60.0);  // consumer re-primes: route restored...
  h.meet(1, 2, 80.0);  // ...and the stored copy is offered again
  EXPECT_EQ(h.collector.results().interested_deliveries, 1u);
}

TEST(RelayGating, DemotedBrokerServesLeftoversUngated) {
  Harness h(3, {1, 1, 0}, {make_message(0, 0, 0)},
            pinned(/*df=*/1.0, /*gating=*/true));
  h.proto.election_mutable().set_broker(1, true);
  h.meet(2, 1, 1.0);
  h.meet(0, 1, 10.0);
  h.proto.election_mutable().set_broker(1, false);  // demotion
  h.meet(1, 2, 80.0);  // ex-broker, relay authority gone: delivers ungated
  EXPECT_EQ(h.collector.results().interested_deliveries, 1u);
}

TEST(LoopPrevention, CopyNeverRevisitsABroker) {
  // Brokers 1 and 2 with alternating reinforcement could ping-pong a copy
  // forever; carried_ever must hold the walk to one visit each.
  BsubConfig cfg = pinned(1.0, false);
  Harness h(4, {1, 1, 1, 0}, {make_message(0, 0, 0)}, cfg);
  h.proto.election_mutable().set_broker(1, true);
  h.proto.election_mutable().set_broker(2, true);
  h.meet(3, 1, 1.0);   // prime broker 1
  h.meet(0, 1, 2.0);   // pickup at broker 1
  ASSERT_EQ(h.proto.traffic().pickups, 1u);
  h.meet(3, 2, 10.0);  // broker 2 now fresher
  h.meet(1, 2, 11.0);  // copy moves 1 -> 2
  EXPECT_EQ(h.proto.traffic().broker_transfers, 1u);
  h.meet(3, 1, 20.0);  // broker 1 fresher again
  h.meet(1, 2, 21.0);  // must NOT move back: 1 already carried it
  h.meet(2, 1, 30.0);
  EXPECT_EQ(h.proto.traffic().broker_transfers, 1u);
}

TEST(LoopPrevention, BrokerDoesNotRePickUpAfterForwardingAway) {
  BsubConfig cfg = pinned(0.0, false);
  cfg.copy_limit = 5;
  Harness h(4, {1, 1, 1, 0}, {make_message(0, 0, 0)}, cfg);
  h.proto.election_mutable().set_broker(1, true);
  h.proto.election_mutable().set_broker(2, true);
  h.meet(3, 1, 1.0);
  h.meet(3, 2, 2.0);
  h.meet(3, 2, 3.0);   // broker 2 reinforced twice: stronger
  h.meet(0, 1, 5.0);   // pickup #1 at broker 1
  h.meet(1, 2, 6.0);   // moves to broker 2
  h.meet(0, 1, 7.0);   // producer meets broker 1 again: no second pickup
  EXPECT_EQ(h.proto.traffic().pickups, 1u);
}

TEST(FalseInjection, FlagFollowsCustodyBetweenBrokers) {
  // One-hash filters small enough that "alpha" (the message's key) shares
  // its only bit with "beta" (the primer's interest) but not with "gamma"
  // (everyone else's): the relay primed with beta picks up an alpha message
  // by a Bloom false positive, and no gamma node's report matches it.
  workload::KeySet keys({{"alpha", 0.3}, {"beta", 0.3}, {"gamma", 0.4}});
  auto bit = [&](workload::KeyId key, std::size_t m) {
    return util::bloom_indices(keys.hash(key), 1, m)[0];
  };
  std::size_t m = 2;
  while (m <= 256 && !(bit(0, m) == bit(1, m) && bit(0, m) != bit(2, m))) ++m;
  ASSERT_LE(m, 256u) << "no geometry separates the three keys";

  for (const bool reference : {false, true}) {
    SCOPED_TRACE(reference ? "reference contact path" : "fast contact path");
    BsubConfig cfg = pinned(/*df=*/1.0, /*gating=*/false);
    cfg.filter_params = {m, 1};
    cfg.reference_contact_path = reference;
    // Node 0 produces, 1 and 2 are brokers, 3 primes with beta, 4 wants
    // alpha but never primes a broker before the copy reaches it.
    Harness h(5, {2, 2, 2, 1, 0}, {make_message(0, 0, 0)}, cfg, keys);
    h.proto.election_mutable().set_broker(1, true);
    h.proto.election_mutable().set_broker(2, true);
    h.meet(3, 1, 1.0);  // broker 1 relays beta (and so, falsely, alpha)
    h.meet(0, 1, 2.0);  // false-positive pickup at broker 1
    ASSERT_EQ(h.proto.traffic().pickups, 1u);
    ASSERT_EQ(h.proto.false_injections(), 1u);
    h.meet(3, 2, 10.0);  // broker 2 fresher
    h.meet(1, 2, 11.0);  // custody moves 1 -> 2
    ASSERT_EQ(h.proto.traffic().broker_transfers, 1u);

    h.meet(1, 4, 12.0);  // the sender gave up custody: nothing to count
    metrics::RunResults r = h.collector.results();
    EXPECT_EQ(r.interested_deliveries, 0u);
    EXPECT_EQ(r.false_deliveries, 0u);

    h.meet(2, 4, 13.0);  // the new custodian delivers a flagged copy
    r = h.collector.results();
    EXPECT_EQ(r.interested_deliveries, 1u);
    EXPECT_EQ(r.false_deliveries, 1u);
    EXPECT_EQ(h.proto.traffic().deliveries, 1u);
  }
}

}  // namespace
}  // namespace bsub::core
