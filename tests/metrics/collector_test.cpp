#include "metrics/collector.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

// Counts every global allocation in this test binary, so a test can assert
// that a call allocated nothing.
namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace bsub::metrics {
namespace {

workload::Message msg(workload::MessageId id, util::Time created = 0) {
  workload::Message m;
  m.id = id;
  m.key = 0;
  m.producer = 0;
  m.size_bytes = 100;
  m.created = created;
  m.ttl = util::kHour;
  return m;
}

TEST(Collector, EmptyResults) {
  Collector c;
  RunResults r = c.results();
  EXPECT_EQ(r.interested_deliveries, 0u);
  EXPECT_DOUBLE_EQ(r.delivery_ratio, 0.0);
  EXPECT_DOUBLE_EQ(r.false_positive_rate, 0.0);
  EXPECT_DOUBLE_EQ(r.forwardings_per_delivery, 0.0);
}

TEST(Collector, DeliveryRatio) {
  Collector c;
  c.set_expected(10, 4);
  c.record_delivery(msg(1), 1, util::kMinute, true);
  c.record_delivery(msg(2), 2, util::kMinute, true);
  RunResults r = c.results();
  EXPECT_EQ(r.interested_deliveries, 2u);
  EXPECT_DOUBLE_EQ(r.delivery_ratio, 0.5);
}

TEST(Collector, DuplicateDeliveriesIgnored) {
  Collector c;
  c.set_expected(10, 4);
  c.record_delivery(msg(1), 1, util::kMinute, true);
  c.record_delivery(msg(1), 1, 2 * util::kMinute, true);
  EXPECT_EQ(c.results().interested_deliveries, 1u);
}

TEST(Collector, SameMessageDifferentNodesBothCount) {
  Collector c;
  c.set_expected(10, 4);
  c.record_delivery(msg(1), 1, util::kMinute, true);
  c.record_delivery(msg(1), 2, util::kMinute, true);
  EXPECT_EQ(c.results().interested_deliveries, 2u);
}

TEST(Collector, DelayStatistics) {
  Collector c;
  c.set_expected(10, 10);
  c.record_delivery(msg(1, 0), 1, 10 * util::kMinute, true);
  c.record_delivery(msg(2, 0), 2, 30 * util::kMinute, true);
  RunResults r = c.results();
  EXPECT_DOUBLE_EQ(r.mean_delay_minutes, 20.0);
  EXPECT_DOUBLE_EQ(r.median_delay_minutes, 20.0);
}

TEST(Collector, UninterestedDeliveryCountsAsFalse) {
  Collector c;
  c.set_expected(10, 10);
  c.record_delivery(msg(1), 1, util::kMinute, true);
  c.record_delivery(msg(2), 2, util::kMinute, false);
  RunResults r = c.results();
  EXPECT_EQ(r.false_deliveries, 1u);
  EXPECT_DOUBLE_EQ(r.false_positive_rate, 0.5);
}

TEST(Collector, FalselyInjectedInterestedDeliveryCountsBothWays) {
  // Delivered to an interested consumer, but via a false-positive pickup:
  // counts toward delivery ratio AND toward the FPR numerator.
  Collector c;
  c.set_expected(10, 10);
  c.record_delivery(msg(1), 1, util::kMinute, true, /*falsely_injected=*/true);
  RunResults r = c.results();
  EXPECT_EQ(r.interested_deliveries, 1u);
  EXPECT_EQ(r.false_deliveries, 1u);
  EXPECT_DOUBLE_EQ(r.false_positive_rate, 1.0);
}

TEST(Collector, FalseDeliveriesExcludedFromDelay) {
  Collector c;
  c.set_expected(10, 10);
  c.record_delivery(msg(1, 0), 1, 10 * util::kMinute, true);
  c.record_delivery(msg(2, 0), 2, 1000 * util::kMinute, false);
  EXPECT_DOUBLE_EQ(c.results().mean_delay_minutes, 10.0);
}

TEST(Collector, ForwardingsPerDelivery) {
  Collector c;
  c.set_expected(10, 10);
  c.record_forwarding(msg(1));
  c.record_forwarding(msg(1));
  c.record_forwarding(msg(2));
  c.record_delivery(msg(1), 1, util::kMinute, true);
  RunResults r = c.results();
  EXPECT_EQ(r.forwardings, 3u);
  EXPECT_DOUBLE_EQ(r.forwardings_per_delivery, 3.0);
}

TEST(Collector, ByteAccounting) {
  Collector c;
  c.record_forwarding(msg(1));  // 100 bytes
  c.record_control_bytes(42);
  RunResults r = c.results();
  EXPECT_EQ(r.message_bytes, 100u);
  EXPECT_EQ(r.control_bytes, 42u);
}

TEST(Collector, DeliveredLookup) {
  Collector c;
  c.record_delivery(msg(5), 3, util::kMinute, true);
  EXPECT_TRUE(c.delivered(5, 3));
  EXPECT_FALSE(c.delivered(5, 4));
  EXPECT_FALSE(c.delivered(6, 3));
}

TEST(Collector, TransportCountersSurfaceInResults) {
  Collector c;
  ++c.transport().datagrams_sent;
  c.transport().datagrams_sent += 2;
  ++c.transport().datagrams_dropped;
  ++c.transport().frames_retransmitted;
  ++c.transport().session_opens;
  ++c.transport().session_timeouts;
  RunResults r = c.results();
  EXPECT_EQ(r.transport.datagrams_sent, 3u);
  EXPECT_EQ(r.transport.datagrams_dropped, 1u);
  EXPECT_EQ(r.transport.frames_retransmitted, 1u);
  EXPECT_EQ(r.transport.session_opens, 1u);
  EXPECT_EQ(r.transport.session_timeouts, 1u);
  EXPECT_EQ(r.transport.frames_received, 0u);
}

TEST(Collector, TransportStatsMergeSums) {
  TransportStats a{.datagrams_sent = 2, .frames_sent = 5, .session_opens = 1};
  TransportStats b{.datagrams_sent = 3, .frames_sent = 1,
                   .reassembly_failures = 4};
  a.merge(b);
  EXPECT_EQ(a.datagrams_sent, 5u);
  EXPECT_EQ(a.frames_sent, 6u);
  EXPECT_EQ(a.session_opens, 1u);
  EXPECT_EQ(a.reassembly_failures, 4u);
}

TEST(Collector, FalseDeliveryAlsoDedupes) {
  Collector c;
  c.set_expected(10, 10);
  c.record_delivery(msg(1), 1, util::kMinute, false);
  c.record_delivery(msg(1), 1, util::kMinute, true);  // ignored: already seen
  RunResults r = c.results();
  EXPECT_EQ(r.interested_deliveries, 0u);
  EXPECT_EQ(r.false_deliveries, 1u);
}

TEST(Collector, IdsAtWordBoundaries) {
  // 63, 64 and 65 straddle the first two bitmap words.
  Collector c;
  c.set_expected(66, 3);
  for (workload::MessageId id : {63u, 64u, 65u}) {
    c.record_delivery(msg(id), 1, util::kMinute, true);
    c.record_delivery(msg(id), 1, util::kMinute, true);  // duplicate
  }
  EXPECT_TRUE(c.delivered(63, 1));
  EXPECT_TRUE(c.delivered(64, 1));
  EXPECT_TRUE(c.delivered(65, 1));
  EXPECT_FALSE(c.delivered(62, 1));
  EXPECT_FALSE(c.delivered(66, 1));
  EXPECT_FALSE(c.delivered(64, 2));
  EXPECT_EQ(c.results().interested_deliveries, 3u);
}

TEST(Collector, IdPastUniverseRecordsAndDedupes) {
  // set_expected sizes the bitmap for 10 messages; a larger id still
  // records (the node's bitmap grows) and still deduplicates.
  Collector c;
  c.set_expected(10, 10);
  c.record_delivery(msg(3), 1, util::kMinute, true);
  c.record_delivery(msg(1000), 1, util::kMinute, true);
  c.record_delivery(msg(1000), 1, 2 * util::kMinute, false);  // ignored
  EXPECT_TRUE(c.delivered(1000, 1));
  EXPECT_TRUE(c.delivered(3, 1));
  EXPECT_FALSE(c.delivered(999, 1));
  RunResults r = c.results();
  EXPECT_EQ(r.interested_deliveries, 2u);
  EXPECT_EQ(r.false_deliveries, 0u);
}

TEST(Collector, DeliveredLookupNeverAllocates) {
  Collector c;
  c.set_expected(10, 10);
  c.reserve_nodes(4);
  c.record_delivery(msg(2), 1, util::kMinute, true);
  const std::size_t before = g_allocations.load();
  EXPECT_FALSE(c.delivered(std::uint64_t{1} << 40, 1));  // past the universe
  EXPECT_FALSE(c.delivered(640, 1));
  EXPECT_FALSE(c.delivered(2, 3));    // reserved node, never logged
  EXPECT_FALSE(c.delivered(2, 100));  // node past the partition
  EXPECT_TRUE(c.delivered(2, 1));
  EXPECT_EQ(g_allocations.load(), before);
}

TEST(Collector, ForwardingsPerDeliveryCountsDistinctPairs) {
  // The denominator is the number of distinct (msg, node) pairs, whatever
  // the duplicates, interest, or bitmap word they land in.
  Collector c;
  c.set_expected(80, 10);
  for (int i = 0; i < 12; ++i) c.record_forwarding(msg(1));
  c.record_delivery(msg(1), 1, util::kMinute, true);
  c.record_delivery(msg(1), 1, util::kMinute, true);   // duplicate
  c.record_delivery(msg(1), 2, util::kMinute, false);  // other node
  c.record_delivery(msg(2), 1, util::kMinute, true);
  c.record_delivery(msg(70), 1, util::kMinute, true);  // second word
  c.record_delivery(msg(70), 1, util::kMinute, false);  // duplicate
  RunResults r = c.results();
  EXPECT_EQ(r.forwardings, 12u);
  EXPECT_DOUBLE_EQ(r.forwardings_per_delivery, 12.0 / 4.0);
  EXPECT_DOUBLE_EQ(r.false_positive_rate, 1.0 / 4.0);
}

}  // namespace
}  // namespace bsub::metrics
