#include "core/interest_manager.h"

#include <gtest/gtest.h>

namespace bsub::core {
namespace {

constexpr bloom::BloomParams kPaper{256, 4};
constexpr double kC = 50.0;

/// The test universe; each KeyId below indexes it by name.
const workload::KeySet& test_keys() {
  static const workload::KeySet keys({{"NewMoon", 1}, {"key", 1},
                                      {"real", 1}, {"fake", 1},
                                      {"old", 1}, {"new", 1},
                                      {"a", 1}, {"b", 1}});
  return keys;
}
constexpr workload::KeyId kNewMoon = 0, kKey = 1, kReal = 2, kFake = 3,
                          kOld = 4, kNew = 5, kA = 6, kB = 7;

/// A one-key interest set.
std::span<const workload::KeyId> only(const workload::KeyId& key) {
  return {&key, 1};
}

InterestManager make_manager(double df = 1.0, std::size_t nodes = 4) {
  return InterestManager(test_keys(), nodes, kPaper, kC, df);
}

/// A consumer interested in `key` meets broker `node` at `now`.
void absorb(InterestManager& im, trace::NodeId node, const workload::KeyId& key,
            util::Time now) {
  im.absorb_genuine(node, im.make_genuine(only(key)), only(key), now);
}

/// The node's shadow counter for `key` (0 when absent or never sized).
double shadow_of(const InterestManager& im, trace::NodeId node,
                 workload::KeyId key) {
  const std::span<const double> shadow = im.shadow_snapshot(node);
  return shadow.empty() ? 0.0 : shadow[key];
}

TEST(InterestManager, RelayStartsEmpty) {
  auto im = make_manager();
  EXPECT_TRUE(im.relay(0, 0).empty());
}

TEST(InterestManager, MakeGenuineContainsKeyAtFullStrength) {
  auto im = make_manager();
  bloom::Tcbf g = im.make_genuine(only(kNewMoon));
  EXPECT_TRUE(g.contains("NewMoon"));
  EXPECT_EQ(g.min_counter("NewMoon"), kC);
}

TEST(InterestManager, MakeReportIsPlainBloomFilter) {
  auto im = make_manager();
  bloom::BloomFilter report = im.make_report(only(kNewMoon));
  EXPECT_TRUE(report.contains("NewMoon"));
  EXPECT_LE(report.popcount(), 4u);
}

TEST(InterestManager, AbsorbGenuinePutsKeyInRelay) {
  auto im = make_manager();
  absorb(im, 0, kKey, util::kMinute);
  EXPECT_TRUE(im.relay(0, util::kMinute).contains("key"));
  EXPECT_TRUE(im.genuinely_contains(0, kKey, util::kMinute));
}

TEST(InterestManager, ReinforcementAddsCounters) {
  auto im = make_manager(/*df=*/0.0);
  absorb(im, 0, kKey, 0);
  absorb(im, 0, kKey, 0);
  EXPECT_EQ(im.relay(0, 0).min_counter("key"), 2 * kC);
}

TEST(InterestManager, LazyDecayAppliedOnAccess) {
  auto im = make_manager(/*df=*/1.0);  // 1 unit per minute
  absorb(im, 0, kKey, 0);
  // 10 minutes later the counters must have dropped by 10.
  EXPECT_NEAR(*im.relay(0, util::from_minutes(10)).min_counter("key"),
              kC - 10.0, 1e-9);
}

TEST(InterestManager, DecayRemovesKeyAfterCOverDfMinutes) {
  // At exactly C/DF = 50 minutes the counter reaches 0.0, which reads
  // absent in the filter and in the shadow alike; past it, likewise.
  for (double minutes : {50.0, 51.0}) {
    SCOPED_TRACE(minutes);
    const util::Time drained = util::from_minutes(minutes);
    auto im = make_manager(/*df=*/1.0);
    absorb(im, 0, kKey, 0);
    EXPECT_FALSE(im.relay(0, drained).contains("key"));
    EXPECT_FALSE(im.genuinely_contains(0, kKey, drained));
    EXPECT_EQ(shadow_of(im, 0, kKey), 0.0);
    // Re-absorbing after the drain restarts the key at exactly C.
    absorb(im, 0, kKey, drained);
    EXPECT_EQ(shadow_of(im, 0, kKey), kC);
    EXPECT_EQ(im.relay(0, drained).min_counter("key"), kC);
    EXPECT_TRUE(im.genuinely_contains(0, kKey, drained));
  }
}

TEST(InterestManager, DecayClockDoesNotRunBackwards) {
  auto im = make_manager(/*df=*/1.0);
  absorb(im, 0, kKey, util::from_minutes(10));
  double at_10 = *im.relay(0, util::from_minutes(10)).min_counter("key");
  // Accessing with an older timestamp must not decay or crash.
  double at_5 = *im.relay(0, util::from_minutes(5)).min_counter("key");
  EXPECT_DOUBLE_EQ(at_10, at_5);
}

TEST(InterestManager, ZeroDfNeverDecays) {
  auto im = make_manager(/*df=*/0.0);
  absorb(im, 0, kKey, 0);
  EXPECT_EQ(im.relay(0, 100 * util::kDay).min_counter("key"), kC);
}

TEST(InterestManager, MMergePropagatesAcrossBrokers) {
  auto im = make_manager(/*df=*/0.0);
  absorb(im, 0, kKey, 0);
  bloom::Tcbf snap = im.relay(0, 0);
  im.merge_relay_from(1, snap, im.shadow_snapshot(0),
                      BrokerMergeMode::kMMerge, 0);
  EXPECT_TRUE(im.relay(1, 0).contains("key"));
  EXPECT_TRUE(im.genuinely_contains(1, kKey, 0));
}

TEST(InterestManager, MMergeIsIdempotentAcrossRepeatedMeetings) {
  // Fig. 6's fix: repeated M-merges of the same state do not inflate.
  auto im = make_manager(/*df=*/0.0);
  absorb(im, 0, kKey, 0);
  bloom::Tcbf snap = im.relay(0, 0);
  auto shadow = im.shadow_snapshot(0);
  im.merge_relay_from(1, snap, shadow, BrokerMergeMode::kMMerge, 0);
  double once = *im.relay(1, 0).min_counter("key");
  im.merge_relay_from(1, snap, shadow, BrokerMergeMode::kMMerge, 0);
  EXPECT_DOUBLE_EQ(*im.relay(1, 0).min_counter("key"), once);
  EXPECT_EQ(shadow_of(im, 1, kKey), kC);
  // Node 3 never absorbed anything (empty filter, empty shadow): merging
  // it changes nothing.
  im.merge_relay_from(1, im.relay_snapshot(3), im.shadow_snapshot(3),
                      BrokerMergeMode::kMMerge, 0);
  EXPECT_DOUBLE_EQ(*im.relay(1, 0).min_counter("key"), once);
  EXPECT_EQ(shadow_of(im, 1, kKey), kC);
  EXPECT_FALSE(im.relay_materialized(3));
}

TEST(InterestManager, AMergeModeInflatesCounters) {
  // The ablation setting reproduces the bogus-counter loop. The second
  // merge re-sends a snapshot gone stale 10 minutes ago: it adds its
  // undecayed counters, in the shadow exactly as in the filter.
  auto im = make_manager(/*df=*/1.0);
  absorb(im, 0, kKey, 0);
  const bloom::Tcbf snap = im.relay(0, 0);
  const std::span<const double> live = im.shadow_snapshot(0);
  const std::vector<double> shadow(live.begin(), live.end());
  im.merge_relay_from(1, snap, shadow, BrokerMergeMode::kAMerge, 0);
  const double once = *im.relay(1, 0).min_counter("key");
  const util::Time later = util::from_minutes(10);
  im.merge_relay_from(1, snap, shadow, BrokerMergeMode::kAMerge, later);
  EXPECT_GT(*im.relay(1, later).min_counter("key"), once);
  EXPECT_EQ(shadow_of(im, 1, kKey), (kC - 10.0) + kC);
  EXPECT_EQ(*im.relay(1, later).min_counter("key"), shadow_of(im, 1, kKey));
  // An unmaterialized source adds nothing.
  im.merge_relay_from(1, im.relay_snapshot(3), im.shadow_snapshot(3),
                      BrokerMergeMode::kAMerge, later);
  EXPECT_EQ(shadow_of(im, 1, kKey), (kC - 10.0) + kC);
  EXPECT_FALSE(im.genuinely_contains(1, kFake, later));
}

TEST(InterestManager, ShadowTracksGroundTruthUnderDecay) {
  auto im = make_manager(/*df=*/1.0);
  absorb(im, 0, kReal, 0);
  // "fake" was never absorbed: even if the TCBF happened to match it, the
  // shadow must say no.
  EXPECT_FALSE(im.genuinely_contains(0, kFake, util::kMinute));
  EXPECT_TRUE(im.genuinely_contains(0, kReal, util::kMinute));
}

TEST(InterestManager, ClearRelayResetsFilterAndShadow) {
  auto im = make_manager();
  absorb(im, 0, kKey, 0);
  im.clear_relay(0, util::kMinute);
  EXPECT_TRUE(im.relay(0, util::kMinute).empty());
  EXPECT_FALSE(im.genuinely_contains(0, kKey, util::kMinute));
}

TEST(InterestManager, PerNodeDfOverride) {
  auto im = make_manager(/*df=*/0.0);
  absorb(im, 0, kKey, 0);
  absorb(im, 1, kKey, 0);
  im.set_node_df(1, 5.0);
  EXPECT_DOUBLE_EQ(im.node_df(0), 0.0);
  EXPECT_DOUBLE_EQ(im.node_df(1), 5.0);
  // Node 0 (global DF 0) keeps the key; node 1 (5/min) loses it.
  EXPECT_TRUE(im.relay(0, util::from_minutes(20)).contains("key"));
  EXPECT_FALSE(im.relay(1, util::from_minutes(20)).contains("key"));
}

TEST(InterestManager, ClearingDfOverrideRestoresGlobal) {
  auto im = make_manager(/*df=*/2.0);
  im.set_node_df(0, 7.0);
  EXPECT_DOUBLE_EQ(im.node_df(0), 7.0);
  im.set_node_df(0, -1.0);
  EXPECT_DOUBLE_EQ(im.node_df(0), 2.0);
}

TEST(InterestManager, DfOverrideSurvivesClearRelay) {
  // Adaptive DF is a property of the node, not of one relay incarnation:
  // demotion resets the filter but must keep the tuned decay factor.
  auto im = make_manager(/*df=*/0.0);
  im.set_node_df(0, 5.0);
  absorb(im, 0, kKey, 0);
  im.clear_relay(0, 0);
  EXPECT_DOUBLE_EQ(im.node_df(0), 5.0);
  // The override keeps governing the next incarnation's decay.
  absorb(im, 0, kKey, 0);
  EXPECT_FALSE(im.relay(0, util::from_minutes(20)).contains("key"));
}

TEST(InterestManager, SetNodeDfDoesNotMaterializeRelay) {
  auto im = make_manager();
  im.set_node_df(0, 3.0);
  EXPECT_DOUBLE_EQ(im.node_df(0), 3.0);
  EXPECT_FALSE(im.relay_materialized(0));
  EXPECT_EQ(im.materialized_relays(), 0u);
}

TEST(InterestManager, RelayStateIsLazyUntilFirstTouch) {
  auto im = make_manager();
  // Read-only paths see shared empty state without materializing.
  EXPECT_TRUE(im.relay_snapshot(2).empty());
  EXPECT_FALSE(im.genuinely_contains(2, kKey, util::kMinute));
  EXPECT_TRUE(im.shadow_snapshot(2).empty());
  EXPECT_EQ(im.materialized_relays(), 0u);
  absorb(im, 2, kKey, util::kMinute);
  EXPECT_TRUE(im.relay_materialized(2));
  EXPECT_FALSE(im.relay_materialized(0));
  EXPECT_EQ(im.materialized_relays(), 1u);
}

TEST(InterestManager, ClearRelayReturnsStateToPool) {
  auto im = make_manager();
  absorb(im, 1, kKey, 0);
  ASSERT_EQ(im.materialized_relays(), 1u);
  EXPECT_EQ(im.pooled_relays(), 0u);
  im.clear_relay(1, 0);
  EXPECT_FALSE(im.relay_materialized(1));
  EXPECT_EQ(im.materialized_relays(), 0u);
  EXPECT_EQ(im.pooled_relays(), 1u);
}

TEST(InterestManager, RePromotionReusesPooledState) {
  // Demote node 1, then promote node 3: the new broker's state must come
  // off the free list (recycled), not from a fresh allocation.
  auto im = make_manager();
  absorb(im, 1, kOld, 0);
  im.clear_relay(1, 0);
  ASSERT_EQ(im.pooled_relays(), 1u);
  ASSERT_EQ(im.relays_recycled(), 0u);

  absorb(im, 3, kNew, util::kMinute);
  EXPECT_EQ(im.relays_recycled(), 1u);
  EXPECT_EQ(im.pooled_relays(), 0u);
  EXPECT_EQ(im.materialized_relays(), 1u);
  // The recycled state carries nothing over from its previous owner.
  EXPECT_FALSE(im.genuinely_contains(3, kOld, util::kMinute));
  EXPECT_TRUE(im.genuinely_contains(3, kNew, util::kMinute));
  EXPECT_FALSE(im.relay(3, util::kMinute).contains("old"));
}

TEST(InterestManager, RecycledStateDecaysFromReacquisitionTime) {
  // A recycled relay's decay clock starts at its new first touch — exactly
  // like an eager empty filter, whose decay up to that point is a no-op.
  auto im = make_manager(/*df=*/1.0);
  absorb(im, 0, kA, 0);
  im.clear_relay(0, util::from_minutes(5));
  // Re-promote the same node much later; counters must start at full C.
  const util::Time later = util::from_minutes(500);
  absorb(im, 0, kB, later);
  EXPECT_EQ(im.relay(0, later).min_counter("b"), kC);
  // And decay only from `later` on.
  EXPECT_NEAR(*im.relay(0, later + util::from_minutes(10)).min_counter("b"),
              kC - 10.0, 1e-9);
}

TEST(InterestManager, EagerModeMatchesPooledObservables) {
  InterestManager lazy(test_keys(), 4, kPaper, kC, 1.0,
                       /*eager_state=*/false);
  InterestManager eager(test_keys(), 4, kPaper, kC, 1.0,
                        /*eager_state=*/true);
  for (InterestManager* im : {&lazy, &eager}) {
    im->set_node_df(1, 2.0);
    absorb(*im, 1, kKey, 0);
    im->clear_relay(1, util::kMinute);
    absorb(*im, 1, kKey, util::kMinute);
  }
  EXPECT_DOUBLE_EQ(*lazy.relay(1, util::from_minutes(3)).min_counter("key"),
                   *eager.relay(1, util::from_minutes(3)).min_counter("key"));
  EXPECT_EQ(lazy.genuinely_contains(1, kKey, util::from_minutes(3)),
            eager.genuinely_contains(1, kKey, util::from_minutes(3)));
}

TEST(InterestManager, RelaySnapshotDoesNotAdvanceClock) {
  auto im = make_manager(/*df=*/1.0);
  absorb(im, 0, kKey, 0);
  const bloom::Tcbf& snap = im.relay_snapshot(0);
  EXPECT_EQ(snap.min_counter("key"), kC);
}

}  // namespace
}  // namespace bsub::core
