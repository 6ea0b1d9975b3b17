#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <vector>

#include "trace/synthetic.h"
#include "util/errors.h"
#include "workload/workload.h"

namespace bsub::sim {
namespace {

/// Records the event sequence it sees, for ordering assertions.
class RecordingProtocol final : public Protocol {
 public:
  struct Event {
    enum Kind { kMessage, kContact } kind;
    util::Time time;
    trace::NodeId a = 0, b = 0;
  };

  using Protocol::on_start;
  void on_start(const ScenarioInfo& scenario,
                const workload::Workload& workload,
                metrics::Collector& collector) override {
    started = true;
    node_count = scenario.node_count;
    collector_ = &collector;
    (void)workload;
  }
  void on_message_created(const workload::Message& msg,
                          util::Time now) override {
    events.push_back({Event::kMessage, now, msg.producer, 0});
  }
  void on_contact(trace::NodeId a, trace::NodeId b, util::Time now,
                  util::Time duration, Link& link) override {
    events.push_back({Event::kContact, now, a, b});
    last_budget = link.budget_bytes();
    last_duration = duration;
  }
  void on_end(util::Time now) override { end_time = now; }
  const char* name() const override { return "recorder"; }

  bool started = false;
  std::size_t node_count = 0;
  std::vector<Event> events;
  std::uint64_t last_budget = 0;
  util::Time last_duration = 0;
  util::Time end_time = -1;
  metrics::Collector* collector_ = nullptr;
};

struct Scenario {
  trace::ContactTrace trace;
  workload::KeySet keys;
  workload::Workload workload;

  explicit Scenario(std::uint64_t seed = 11)
      : trace([&] {
          trace::SyntheticTraceConfig cfg;
          cfg.node_count = 10;
          cfg.contact_count = 300;
          cfg.duration = util::kDay;
          cfg.seed = seed;
          return trace::generate_trace(cfg);
        }()),
        keys(workload::twitter_trend_keys()),
        workload(trace, keys, {}) {}
};

TEST(Simulator, DispatchesAllEvents) {
  Scenario s;
  RecordingProtocol proto;
  Simulator sim;
  sim.run(s.trace, s.workload, proto);
  EXPECT_TRUE(proto.started);
  EXPECT_EQ(proto.node_count, 10u);
  std::size_t contacts = 0, messages = 0;
  for (const auto& e : proto.events) {
    (e.kind == RecordingProtocol::Event::kContact ? contacts : messages)++;
  }
  EXPECT_EQ(contacts, s.trace.contacts().size());
  EXPECT_EQ(messages, s.workload.messages().size());
}

TEST(Simulator, EventsAreTimeOrdered) {
  Scenario s;
  RecordingProtocol proto;
  Simulator sim;
  sim.run(s.trace, s.workload, proto);
  util::Time prev = -1;
  for (const auto& e : proto.events) {
    EXPECT_GE(e.time, prev);
    prev = e.time;
  }
  EXPECT_EQ(proto.end_time, prev);
}

TEST(Simulator, MessageCreationPrecedesSimultaneousContact) {
  // A message created at time t must be visible to a contact starting at t.
  std::vector<trace::Contact> contacts = {{0, 1, 100, 200}};
  trace::ContactTrace t(2, std::move(contacts));
  // Hand-build a workload-like message at exactly t = 100 is impractical via
  // the Poisson generator; instead assert the merge rule on the recorded
  // order: every message with created == contact start appears first.
  Scenario s;
  RecordingProtocol proto;
  Simulator sim;
  sim.run(s.trace, s.workload, proto);
  for (std::size_t i = 1; i < proto.events.size(); ++i) {
    const auto& prev = proto.events[i - 1];
    const auto& cur = proto.events[i];
    if (prev.time == cur.time &&
        prev.kind == RecordingProtocol::Event::kContact) {
      EXPECT_NE(cur.kind, RecordingProtocol::Event::kMessage)
          << "message after contact at same timestamp";
    }
  }
}

TEST(Simulator, LinkBudgetMatchesContactDuration) {
  std::vector<trace::Contact> contacts = {{0, 1, 0, 4 * util::kSecond}};
  trace::ContactTrace t(2, std::move(contacts), "tiny");
  workload::KeySet keys = workload::twitter_trend_keys();
  workload::Workload w(t, keys, {});
  RecordingProtocol proto;
  SimulatorConfig cfg;
  cfg.bandwidth_bytes_per_second = 500.0;
  Simulator sim(cfg);
  sim.run(t, w, proto);
  EXPECT_EQ(proto.last_budget, 2000u);
  EXPECT_EQ(proto.last_duration, 4 * util::kSecond);
}

TEST(Simulator, ResultsCarryExpectedCounts) {
  Scenario s;
  RecordingProtocol proto;
  Simulator sim;
  metrics::RunResults r = sim.run(s.trace, s.workload, proto);
  EXPECT_EQ(r.messages_created, s.workload.messages().size());
  EXPECT_EQ(r.expected_deliveries, s.workload.expected_deliveries());
  EXPECT_EQ(r.interested_deliveries, 0u);  // recorder delivers nothing
  EXPECT_DOUBLE_EQ(r.delivery_ratio, 0.0);
}

TEST(Simulator, RunIsRepeatable) {
  Scenario s;
  RecordingProtocol p1, p2;
  Simulator sim;
  sim.run(s.trace, s.workload, p1);
  sim.run(s.trace, s.workload, p2);
  ASSERT_EQ(p1.events.size(), p2.events.size());
  for (std::size_t i = 0; i < p1.events.size(); ++i) {
    EXPECT_EQ(p1.events[i].time, p2.events[i].time);
    EXPECT_EQ(p1.events[i].kind, p2.events[i].kind);
  }
}

TEST(Simulator, RejectsWorkloadOfADifferentNodeCount) {
  // Protocols size per-node state by the scenario and read every node's
  // interests, so a workload built for another node count is refused up
  // front, before the protocol starts.
  trace::ContactTrace t(2, {{0, 1, 0, util::kMinute}}, "pair");
  const workload::KeySet keys = workload::twitter_trend_keys();
  for (std::size_t nodes : {1, 3}) {
    SCOPED_TRACE(nodes);
    const workload::Workload w(keys, nodes,
                               std::vector<workload::KeyId>(nodes, 0), {});
    RecordingProtocol proto;
    for (std::size_t threads : {1, 2}) {
      SimulatorConfig cfg;
      cfg.threads = threads;
      EXPECT_THROW(Simulator(cfg).run(t, w, proto), util::ConfigError);
    }
    EXPECT_FALSE(proto.started);
  }
}

}  // namespace
}  // namespace bsub::sim
