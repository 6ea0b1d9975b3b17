#include "engine/trace_runner.h"

#include <atomic>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/protocol_registry.h"
#include "sim/event_stream.h"

namespace bsub::engine {

ContentMessage content_message(const workload::Workload& workload,
                               const workload::Message& m) {
  ContentMessage cm;
  cm.id = m.id;
  cm.key = workload.keys().name(m.key);
  cm.body.assign(m.size_bytes, 0x5A);
  cm.created = m.created;
  cm.ttl = m.ttl;
  return cm;
}

void summarize_deliveries(std::span<const DeliveryRecord> delivered,
                          const workload::Workload& workload,
                          TraceRunResults& results) {
  std::unordered_map<std::uint64_t, util::Time> created_at;
  created_at.reserve(workload.messages().size());
  for (const workload::Message& m : workload.messages()) {
    created_at.emplace(m.id, m.created);
  }
  results.deliveries = delivered.size();
  results.expected_deliveries = workload.expected_deliveries();
  if (results.expected_deliveries > 0) {
    results.delivery_ratio =
        static_cast<double>(results.deliveries) /
        static_cast<double>(results.expected_deliveries);
  }
  double delay_sum = 0.0;
  for (const DeliveryRecord& d : delivered) {
    delay_sum += util::to_minutes(d.at - created_at.at(d.message_id));
  }
  if (results.deliveries > 0) {
    results.mean_delay_minutes =
        delay_sum / static_cast<double>(results.deliveries);
  }
}

TraceRunner TraceRunner::from_protocol_spec(std::string_view protocol_spec,
                                            double bandwidth_bytes_per_second,
                                            TraceRunnerOptions options) {
  const core::BsubConfig cfg = core::bsub_config_from_spec(protocol_spec);
  if (cfg.adaptive_df) {
    throw util::ConfigError(
        "adaptive DF is not supported by the frame-driven engine",
        "B-SUB.adaptive", "use the simulator for adaptive-DF runs");
  }
  core::BrokerElection::Config election;
  election.lower = cfg.broker_lower;
  election.upper = cfg.broker_upper;
  election.window = cfg.election_window;
  election.reference_state = cfg.reference_node_state;
  return TraceRunner(node_config_from(cfg), election,
                     bandwidth_bytes_per_second, options);
}

TraceRunResults TraceRunner::run(trace::ContactStream& contacts,
                                 const workload::Workload& workload) {
  sim::ScenarioReplay replay(contacts, workload);
  const std::size_t node_count = replay.node_count();
  Network net(node_config_);
  core::BrokerElection election(node_count, election_config_);

  // Per-node delivery logs give a canonical node-major order shared by
  // serial and parallel runs (the default append-order log would make the
  // mean-delay float sum depend on the execution schedule).
  net.use_per_node_delivery_log(node_count);

  // Materialize nodes with their subscriptions.
  for (trace::NodeId n = 0; n < node_count; ++n) {
    BsubNode& node = net.add_node(n);
    for (workload::KeyId k : workload.interests_of(n)) {
      node.subscribe(workload.keys().name(k));
    }
  }

  const auto& messages = workload.messages();

  // Frame tallies commute (integer sums), so relaxed atomics keep them
  // schedule-independent.
  std::atomic<std::uint64_t> contacts_processed{0};
  std::atomic<std::uint64_t> frames_delivered{0};
  std::atomic<std::uint64_t> frames_dropped{0};
  std::atomic<std::uint64_t> bytes_used{0};

  auto exec_event = [&](const sim::ScenarioEvent& e) {
    if (e.is_message) {
      const workload::Message& m = messages[e.message_index];
      net.node(m.producer).publish(content_message(workload, m), m.created);
      return;
    }
    const trace::Contact& c = e.contact;
    // Election decides roles, exactly as in the simulator protocol. It only
    // mutates the two endpoints' state, so it is safe inside a batch.
    election.on_contact(c.a, c.b, c.start);
    net.node(c.a).set_broker(election.is_broker(c.a));
    net.node(c.b).set_broker(election.is_broker(c.b));

    const ContactReport report =
        net.contact(c.a, c.b, c.start, c.duration(), bandwidth_);
    contacts_processed.fetch_add(1, std::memory_order_relaxed);
    frames_delivered.fetch_add(report.frames_delivered,
                               std::memory_order_relaxed);
    frames_dropped.fetch_add(report.frames_dropped,
                             std::memory_order_relaxed);
    bytes_used.fetch_add(report.bytes_used, std::memory_order_relaxed);
  };

  sim::ParallelRunConfig pcfg;
  pcfg.threads = options_.threads;
  pcfg.window_events = options_.window_events;
  pcfg.min_batch_fanout = options_.min_batch_fanout;
  last_run_stats_ = replay.run(pcfg, exec_event);

  TraceRunResults results;
  results.contacts_processed = contacts_processed.load();
  results.frames_delivered = frames_delivered.load();
  results.frames_dropped = frames_dropped.load();
  results.bytes_used = bytes_used.load();
  // Nodes already deduplicate per consumer; the node-major log order makes
  // the mean-delay float sum canonical.
  summarize_deliveries(net.deliveries(), workload, results);
  return results;
}

}  // namespace bsub::engine
