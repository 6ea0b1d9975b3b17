#include "sim/simulator.h"

#include <vector>

#include "sim/event_stream.h"

namespace bsub::sim {

metrics::RunResults Simulator::run(trace::ContactStream& contacts,
                                   const workload::Workload& workload,
                                   Protocol& protocol) {
  ScenarioReplay replay(contacts, workload);
  metrics::Collector collector;
  collector.set_expected(workload.messages().size(),
                         workload.expected_deliveries());
  collector.reserve_nodes(replay.node_count());

  protocol.on_start(ScenarioInfo{replay.node_count()}, workload, collector);

  // Protocols that do not opt in replay serially, in the reference order
  // every parallel schedule reproduces per node.
  ParallelRunConfig pcfg;
  pcfg.threads = protocol.parallel_contacts_safe() ? config_.threads : 1;
  pcfg.window_events = config_.window_events;
  pcfg.min_batch_fanout = config_.min_batch_fanout;

  const double bandwidth = config_.bandwidth_bytes_per_second;
  const std::vector<workload::Message>& messages = workload.messages();
  last_run_stats_ = replay.run(pcfg, [&](const ScenarioEvent& e) {
    if (e.is_message) {
      const workload::Message& m = messages[e.message_index];
      protocol.on_message_created(m, m.created);
    } else {
      Link link(e.contact.duration(), bandwidth);
      protocol.on_contact(e.contact.a, e.contact.b, e.contact.start,
                          e.contact.duration(), link);
    }
  });
  protocol.on_end(replay.end_time());
  return collector.results();
}

}  // namespace bsub::sim
