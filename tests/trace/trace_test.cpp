#include "trace/trace.h"

#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

namespace bsub::trace {
namespace {

using bsub::util::kHour;
using bsub::util::kMinute;

ContactTrace sample_trace() {
  // 4 nodes; times in minutes.
  std::vector<Contact> contacts = {
      {0, 1, 0 * kMinute, 5 * kMinute},
      {1, 2, 10 * kMinute, 12 * kMinute},
      {2, 0, 20 * kMinute, 25 * kMinute},  // will normalize to (0,2)
      {0, 1, 30 * kMinute, 31 * kMinute},
      {2, 3, 40 * kMinute, 45 * kMinute},
  };
  return ContactTrace(4, std::move(contacts), "sample");
}

TEST(ContactTrace, NormalizesEndpointOrder) {
  ContactTrace t = sample_trace();
  for (const Contact& c : t.contacts()) EXPECT_LT(c.a, c.b);
}

TEST(ContactTrace, SortsByStartTime) {
  std::vector<Contact> contacts = {
      {0, 1, 50 * kMinute, 51 * kMinute},
      {1, 2, 10 * kMinute, 12 * kMinute},
  };
  ContactTrace t(3, std::move(contacts));
  EXPECT_EQ(t.contacts().front().start, 10 * kMinute);
  EXPECT_EQ(t.contacts().back().start, 50 * kMinute);
}

TEST(ContactTrace, DropsInvalidContacts) {
  std::vector<Contact> contacts = {
      {0, 0, 0, 100},          // self-contact
      {1, 2, 100, 100},        // empty duration
      {1, 2, 200, 100},        // negative duration
      {9, 1, 0, 100},          // out-of-range node
      {0, 1, 0, 100},          // valid
  };
  ContactTrace t(3, std::move(contacts));
  EXPECT_EQ(t.contacts().size(), 1u);
}

TEST(ContactTrace, EmptyTrace) {
  ContactTrace t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.start_time(), 0);
  EXPECT_EQ(t.end_time(), 0);
  TraceStats s = t.stats();
  EXPECT_EQ(s.contact_count, 0u);
}

TEST(ContactTrace, StartAndEndTimes) {
  ContactTrace t = sample_trace();
  EXPECT_EQ(t.start_time(), 0);
  EXPECT_EQ(t.end_time(), 45 * kMinute);
}

TEST(ContactTrace, EndTimeSeesLongOverlappingContact) {
  // A contact that starts early but ends last must define end_time.
  std::vector<Contact> contacts = {
      {0, 1, 0, 100 * kMinute},
      {1, 2, 10 * kMinute, 20 * kMinute},
  };
  ContactTrace t(3, std::move(contacts));
  EXPECT_EQ(t.end_time(), 100 * kMinute);
}

TEST(ContactTrace, StatsMatchHandComputation) {
  ContactTrace t = sample_trace();
  TraceStats s = t.stats();
  EXPECT_EQ(s.node_count, 4u);
  EXPECT_EQ(s.contact_count, 5u);
  EXPECT_EQ(s.duration, 45 * kMinute);
  // Durations: 5, 2, 5, 1, 5 minutes -> mean 3.6 min = 216 s.
  EXPECT_NEAR(s.mean_contact_duration_s, 216.0, 1e-9);
  // 10 participations over 4 nodes.
  EXPECT_NEAR(s.mean_contacts_per_node, 2.5, 1e-12);
}

TEST(ContactTrace, DegreesCountDistinctPeers) {
  ContactTrace t = sample_trace();
  auto deg = t.degrees();
  EXPECT_EQ(deg[0], 2u);  // meets 1, 2
  EXPECT_EQ(deg[1], 2u);  // meets 0, 2
  EXPECT_EQ(deg[2], 3u);  // meets 0, 1, 3
  EXPECT_EQ(deg[3], 1u);  // meets 2
}

TEST(ContactTrace, DegreesInWindowRespectsBounds) {
  ContactTrace t = sample_trace();
  auto deg = t.degrees_in_window(0, 15 * kMinute);
  EXPECT_EQ(deg[0], 1u);  // only contact with 1
  EXPECT_EQ(deg[1], 2u);  // 0 and 2
  EXPECT_EQ(deg[3], 0u);  // contact at 40min excluded
}

TEST(ContactTrace, DegreesInWindowMatchBruteForceSets) {
  // Random trace with repeated pairs, both endpoint orders and contacts
  // starting exactly on window edges; compared against a per-node std::set
  // of peers over [from, to).
  constexpr std::size_t kNodes = 30;
  std::uint64_t state = 0x243F6A8885A308D3ULL;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  std::vector<Contact> contacts;
  for (int i = 0; i < 2000; ++i) {
    Contact c;
    c.a = static_cast<NodeId>(next() % kNodes);
    c.b = static_cast<NodeId>(next() % kNodes);
    c.start = static_cast<util::Time>(next() % 120) * kMinute;
    c.end = c.start + kMinute;
    contacts.push_back(c);
  }
  const ContactTrace t(kNodes, std::move(contacts));
  auto brute = [&t](util::Time from, util::Time to) {
    std::vector<std::set<NodeId>> peers(kNodes);
    for (const Contact& c : t.contacts()) {
      if (c.start < from || c.start >= to) continue;
      peers[c.a].insert(c.b);
      peers[c.b].insert(c.a);
    }
    std::vector<std::size_t> deg;
    for (const auto& p : peers) deg.push_back(p.size());
    return deg;
  };
  const std::pair<util::Time, util::Time> windows[] = {
      {0, 120 * kMinute},           // everything
      {10 * kMinute, 20 * kMinute}, // both edges land on contact starts
      {10 * kMinute, 11 * kMinute}, // a single start instant
      {30 * kMinute, 30 * kMinute}, // empty window
      {119 * kMinute, 500 * kMinute},
      {-kHour, 0},                  // ends where the first contacts start
  };
  for (const auto& [from, to] : windows) {
    EXPECT_EQ(t.degrees_in_window(from, to), brute(from, to))
        << "window [" << from << ", " << to << ")";
  }
  EXPECT_EQ(t.degrees(), brute(t.start_time(), t.end_time() + 1));
}

TEST(ContactTrace, ContactCounts) {
  ContactTrace t = sample_trace();
  auto counts = t.contact_counts();
  EXPECT_EQ(counts[0], 3u);
  EXPECT_EQ(counts[1], 3u);
  EXPECT_EQ(counts[2], 3u);
  EXPECT_EQ(counts[3], 1u);
}

TEST(ContactTrace, RepeatedMeetingsCountOnceInDegree) {
  std::vector<Contact> contacts = {
      {0, 1, 0, kMinute},
      {0, 1, 2 * kMinute, 3 * kMinute},
      {0, 1, 4 * kMinute, 5 * kMinute},
  };
  ContactTrace t(2, std::move(contacts));
  EXPECT_EQ(t.degrees()[0], 1u);
  EXPECT_EQ(t.contact_counts()[0], 3u);
}

}  // namespace
}  // namespace bsub::trace
