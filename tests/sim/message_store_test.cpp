#include "sim/message_store.h"

#include <gtest/gtest.h>

#include <vector>

namespace bsub::sim {
namespace {

workload::Message msg(workload::MessageId id, util::Time created = 0,
                      util::Time ttl = util::kHour) {
  workload::Message m;
  m.id = id;
  m.key = 0;
  m.producer = 0;
  m.size_bytes = 100;
  m.created = created;
  m.ttl = ttl;
  return m;
}

TEST(MessageStore, AddAndContains) {
  MessageStore s;
  EXPECT_TRUE(s.add(msg(1)));
  EXPECT_TRUE(s.contains(1));
  EXPECT_FALSE(s.contains(2));
  EXPECT_EQ(s.size(), 1u);
}

TEST(MessageStore, DuplicateAddRejected) {
  MessageStore s;
  EXPECT_TRUE(s.add(msg(1)));
  EXPECT_FALSE(s.add(msg(1)));
  EXPECT_EQ(s.size(), 1u);
}

TEST(MessageStore, RemoveWorks) {
  MessageStore s;
  s.add(msg(1));
  EXPECT_TRUE(s.remove(1));
  EXPECT_FALSE(s.remove(1));
  EXPECT_TRUE(s.empty());
}

TEST(MessageStore, FindReturnsStoredMessage) {
  MessageStore s;
  s.add(msg(7, 123));
  const workload::Message* m = s.find(7);
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->created, 123);
  EXPECT_EQ(s.find(8), nullptr);
}

TEST(MessageStore, PurgeExpiredDropsOnlyExpired) {
  MessageStore s;
  s.add(msg(1, 0, util::kMinute));        // expires at 1 min
  s.add(msg(2, 0, 10 * util::kMinute));   // expires at 10 min
  s.purge_expired(5 * util::kMinute);
  EXPECT_FALSE(s.contains(1));
  EXPECT_TRUE(s.contains(2));
}

TEST(MessageStore, ExpiryIsInclusiveAtDeadline) {
  MessageStore s;
  s.add(msg(1, 0, util::kMinute));
  s.purge_expired(util::kMinute);  // exactly at expiry: gone
  EXPECT_FALSE(s.contains(1));
}

TEST(MessageStore, IterationIsIdOrdered) {
  MessageStore s;
  s.add(msg(5));
  s.add(msg(1));
  s.add(msg(3));
  std::vector<workload::MessageId> order;
  for (const auto& [id, m] : s) order.push_back(id);
  EXPECT_EQ(order, (std::vector<workload::MessageId>{1, 3, 5}));
}

TEST(MessageStore, ClearEmpties) {
  MessageStore s;
  s.add(msg(1));
  s.clear();
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.size(), 0u);
}

TEST(MessageStore, PurgeReportsDroppedCount) {
  MessageStore s;
  s.add(msg(1, 0, util::kMinute));
  s.add(msg(2, 0, util::kMinute));
  s.add(msg(3, 0, util::kHour));
  EXPECT_EQ(s.purge_expired(util::kMinute), 2u);
  EXPECT_EQ(s.purge_expired(util::kMinute), 0u);  // nothing left to drop
  EXPECT_EQ(s.size(), 1u);
}

TEST(MessageStore, PurgeIsSkippedWhenNothingIsDue) {
  MessageStore s;
  s.add(msg(1, 0, util::kHour));
  const std::uint64_t skipped_before = s.stats().purges_skipped;
  EXPECT_EQ(s.purge_expired(util::kMinute), 0u);
  EXPECT_EQ(s.stats().purges_skipped, skipped_before + 1);
  EXPECT_EQ(s.stats().purges_scanned, 0u);
}

TEST(MessageStore, SharedAddKeepsPayloadIdentity) {
  workload::Message m = msg(7, 123);
  MessageRef ref = std::make_shared<const workload::Message>(m);
  MessageStore a;
  MessageStore b;
  a.add(ref);
  b.add(a.find_ref(7));  // custody move: same payload, no copy
  EXPECT_EQ(a.find_ref(7).get(), ref.get());
  EXPECT_EQ(b.find_ref(7).get(), ref.get());
  EXPECT_EQ(a.stats().shared_adds, 1u);
  EXPECT_EQ(b.stats().shared_adds, 1u);
  EXPECT_EQ(a.stats().copied_adds, 0u);
}

TEST(MessageStore, CopyingAddMakesAnOwnedPayload) {
  workload::Message m = msg(7);
  MessageStore s;
  s.add(m);  // const Message& overload: deep copy
  EXPECT_NE(s.find(7), &m);
  EXPECT_EQ(s.stats().copied_adds, 1u);
  EXPECT_EQ(s.stats().shared_adds, 0u);
}

TEST(MessageStore, BorrowedMessageIsNonOwning) {
  workload::Message m = msg(9, 5);
  MessageRef ref = borrow_message(m);
  EXPECT_EQ(ref.get(), &m);
  MessageStore s;
  s.add(ref);
  EXPECT_EQ(s.find(9), &m);
}

TEST(MessageStore, StaleHeapEntriesDoNotDropLiveMessages) {
  // Remove a message before its expiry: its heap entry goes stale. A later
  // purge at that expiry must pop the stale entry without touching the
  // still-live remainder.
  MessageStore s;
  s.add(msg(1, 0, util::kMinute));
  s.add(msg(2, 0, util::kHour));
  s.remove(1);
  EXPECT_EQ(s.purge_expired(util::kMinute), 0u);
  EXPECT_TRUE(s.contains(2));
  // The stale pop consumed the due entry; the next purge is O(1) again.
  const std::uint64_t skipped_before = s.stats().purges_skipped;
  s.purge_expired(util::kMinute);
  EXPECT_EQ(s.stats().purges_skipped, skipped_before + 1);
}

TEST(MessageStore, PurgeKeepsAnUnexpiredEntryBetweenExpiredOnes) {
  MessageStore s;
  s.add(msg(1, 0, util::kMinute));
  s.add(msg(2, 0, util::kHour));  // between two expiring ids, lives on
  s.add(msg(3, 0, util::kMinute));
  s.add(msg(4, 0, util::kHour));
  EXPECT_EQ(s.purge_expired(util::kMinute), 2u);
  std::vector<workload::MessageId> left;
  for (const auto& e : s) left.push_back(e.id);
  EXPECT_EQ(left, (std::vector<workload::MessageId>{2, 4}));
}

TEST(MessageStore, PurgeSkipsStaleEntriesAndCountsOnlyRealDrops) {
  // Ids 1..4 all expire at the same instant; 2 and 4 left the store early,
  // so their heap entries are stale. Id 3 was removed and re-added, so it
  // has two heap entries, and must still count once.
  MessageStore s;
  for (workload::MessageId id = 1; id <= 5; ++id) {
    s.add(msg(id, 0, id == 5 ? util::kHour : util::kMinute));
  }
  s.remove(2);
  s.remove(4);
  s.remove(3);
  s.add(msg(3, 0, util::kMinute));
  EXPECT_EQ(s.purge_expired(util::kMinute), 2u);  // ids 1 and 3
  std::vector<workload::MessageId> left;
  for (const auto& e : s) left.push_back(e.id);
  EXPECT_EQ(left, (std::vector<workload::MessageId>{5}));
  // Only stale entries were due at this instant: nothing more to drop.
  s.remove(5);
  EXPECT_EQ(s.purge_expired(util::kHour), 0u);
  EXPECT_TRUE(s.empty());
}

TEST(MessageStore, EraseDueWorksOnAnySortedEntryVector) {
  // The helper the B-SUB producer buffer shares with the store.
  struct Owned {
    workload::MessageId id;
    MessageRef msg;
    int extra;
  };
  std::vector<workload::Message> table;
  for (workload::MessageId id = 0; id < 6; ++id) {
    table.push_back(msg(id, 0, id % 2 == 0 ? util::kMinute : util::kHour));
  }
  std::vector<Owned> entries;
  ExpiryIndex expiry;
  for (const auto& m : table) {
    entries.push_back({m.id, borrow_message(m), static_cast<int>(m.id)});
    expiry.add(m.expiry(), m.id);
  }
  EXPECT_EQ(erase_due(entries, expiry, util::kMinute), 3u);
  ASSERT_EQ(entries.size(), 3u);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(entries[i].id, 2 * i + 1);
    EXPECT_EQ(entries[i].extra, static_cast<int>(2 * i + 1));
  }
  EXPECT_FALSE(expiry.due(util::kMinute));
}

TEST(MessageStore, FastAndScanPurgeAgreeOnRandomizedModel) {
  // Differential model check: drive a fast store and a naive-scan store
  // through an identical randomized op sequence (add / remove / purge at
  // advancing times) and require identical contents at every purge.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    std::uint64_t state = seed * 0x9E3779B97F4A7C15ULL;
    auto next = [&state]() {
      state ^= state << 13;
      state ^= state >> 7;
      state ^= state << 17;
      return state;
    };
    MessageStore fast;
    MessageStore scan;
    util::Time now = 0;
    workload::MessageId next_id = 1;
    for (int op = 0; op < 400; ++op) {
      switch (next() % 4) {
        case 0:
        case 1: {  // add with randomized ttl
          const workload::Message m =
              msg(next_id++, now, 1 + static_cast<util::Time>(
                                          next() % (2 * util::kHour)));
          fast.add(m);
          scan.add(m);
          break;
        }
        case 2: {  // remove a random (maybe absent) id
          const workload::MessageId id = 1 + next() % next_id;
          fast.remove(id);
          scan.remove(id);
          break;
        }
        case 3: {  // advance time and purge both ways
          now += static_cast<util::Time>(next() % util::kHour);
          EXPECT_EQ(fast.purge_expired(now), scan.purge_expired_scan(now))
              << "seed " << seed << " op " << op;
          break;
        }
      }
      ASSERT_EQ(fast.size(), scan.size()) << "seed " << seed << " op " << op;
    }
    now += 3 * util::kHour;
    EXPECT_EQ(fast.purge_expired(now), scan.purge_expired_scan(now));
    auto fit = fast.begin();
    for (const auto& e : scan) {
      ASSERT_NE(fit, fast.end());
      EXPECT_EQ(fit->id, e.id);
      ++fit;
    }
    EXPECT_EQ(fit, fast.end());
  }
}

}  // namespace
}  // namespace bsub::sim
