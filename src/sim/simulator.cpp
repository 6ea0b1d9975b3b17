#include "sim/simulator.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/event_stream.h"

namespace bsub::sim {

metrics::RunResults Simulator::run(trace::ContactStream& contacts,
                                   const workload::Workload& workload,
                                   Protocol& protocol) {
  metrics::Collector collector;
  collector.set_expected(workload.messages().size(),
                         workload.expected_deliveries());

  const std::vector<workload::Message>& messages = workload.messages();

  // Node-id space for the conflict scheduler: producers are scenario nodes,
  // but stay defensive against workloads that reference ids past it.
  std::size_t node_count = contacts.node_count();
  for (const workload::Message& m : messages) {
    node_count = std::max(node_count, static_cast<std::size_t>(m.producer) + 1);
  }
  collector.reserve_nodes(node_count);

  protocol.on_start(ScenarioInfo{contacts.node_count()}, workload, collector);

  const std::size_t threads =
      config_.threads != 0 ? config_.threads : util::default_thread_count();

  last_run_stats_ = ParallelRunStats{};
  ScenarioEventStream events(contacts, workload);
  util::Time now = 0;

  if (threads <= 1 || !protocol.parallel_contacts_safe()) {
    // Serial merge replay — the reference order every parallel schedule
    // must reproduce per node.
    last_run_stats_.threads_used = 1;
    ScenarioEvent e;
    while (events.next(e)) {
      ++last_run_stats_.events;
      now = e.time(messages);
      if (e.is_message) {
        protocol.on_message_created(messages[e.message_index], now);
      } else {
        Link link(e.contact.duration(), config_.bandwidth_bytes_per_second);
        protocol.on_contact(e.contact.a, e.contact.b, now,
                            e.contact.duration(), link);
      }
    }
    protocol.on_end(now);
    return collector.results();
  }

  // Streamed parallel replay: stage one scheduling window of events at a
  // time; the executor never sees more than the window. `staged` is reused
  // across windows (windows are strictly sequential).
  ParallelRunConfig pcfg;
  pcfg.threads = threads;
  pcfg.window_events = config_.window_events;
  pcfg.min_batch_fanout = config_.min_batch_fanout;

  std::vector<ScenarioEvent> staged;
  const double bandwidth = config_.bandwidth_bytes_per_second;
  last_run_stats_ = run_windowed_parallel(
      node_count,
      [&](std::span<EventNodes> slots) {
        staged.resize(slots.size());
        std::size_t n = 0;
        while (n < slots.size() && events.next(staged[n])) {
          slots[n] = staged[n].nodes(messages);
          ++n;
        }
        if (n > 0) now = staged[n - 1].time(messages);
        return n;
      },
      [&](std::size_t j) {
        const ScenarioEvent& e = staged[j];
        if (e.is_message) {
          const workload::Message& m = messages[e.message_index];
          protocol.on_message_created(m, m.created);
        } else {
          Link link(e.contact.duration(), bandwidth);
          protocol.on_contact(e.contact.a, e.contact.b, e.contact.start,
                              e.contact.duration(), link);
        }
      },
      pcfg);
  // An empty scenario never engaged the pool; report it as the serial run
  // it effectively was.
  if (last_run_stats_.events == 0) last_run_stats_.threads_used = 1;

  protocol.on_end(now);
  return collector.results();
}

}  // namespace bsub::sim
