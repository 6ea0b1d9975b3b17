#include "engine/trace_runner.h"

#include <cstdint>
#include <unordered_map>
#include <vector>

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

TraceRunResults TraceRunner::run(trace::ContactStream& contacts,
                                 const workload::Workload& workload) {
  sim::ScenarioReplay replay(contacts, workload);
  const std::size_t node_count = replay.node_count();
  Network net(config_);
  core::BrokerElection election(node_count, core::election_config(config_));

  // Per-node delivery logs give the canonical node-major order shared with
  // the fleet's loopback replay.
  net.use_per_node_delivery_log(node_count);

  // Materialize nodes with their subscriptions.
  for (trace::NodeId n = 0; n < node_count; ++n) {
    BsubNode& node = net.add_node(n);
    for (workload::KeyId k : workload.interests_of(n)) {
      node.subscribe(workload.keys().name(k));
    }
  }

  const auto& messages = workload.messages();
  TraceRunResults results;
  auto exec_event = [&](const sim::ScenarioEvent& e) {
    if (e.is_message) {
      const workload::Message& m = messages[e.message_index];
      net.node(m.producer).publish(content_message(workload, m), m.created);
      return;
    }
    const trace::Contact& c = e.contact;
    // Election decides roles, exactly as in the simulator protocol.
    election.on_contact(c.a, c.b, c.start);
    net.node(c.a).set_broker(election.is_broker(c.a));
    net.node(c.b).set_broker(election.is_broker(c.b));

    const ContactReport report =
        net.contact(c.a, c.b, c.start, c.duration(), bandwidth_);
    ++results.contacts_processed;
    results.frames_delivered += report.frames_delivered;
    results.frames_dropped += report.frames_dropped;
    results.bytes_used += report.bytes_used;
  };
  // Serial: a ParallelRunConfig's default threads = 0 means "auto".
  replay.run(sim::ParallelRunConfig{.threads = 1}, exec_event);

  // Nodes already deduplicate per consumer; the node-major log order makes
  // the mean-delay float sum canonical.
  summarize_deliveries(net.deliveries(), workload, results);
  return results;
}

}  // namespace bsub::engine
