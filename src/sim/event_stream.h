// Streaming scenario event merge: contacts x message creations.
//
// ScenarioEventStream two-way-merges a pull-based contact stream with the
// workload's time-ordered message-creation list, producing the exact event
// sequence the serial simulator loop replays — including its tie rule (a
// creation at time t is visible to a contact starting at the same t).
// State is one buffered contact + one message cursor, so the merge adds
// nothing to a streamed run's memory footprint.
//
// ScenarioReplay is the one replay loop every trace-driven driver shares
// (Simulator, engine::TraceRunner, FleetRuntime's loopback replay): the
// merged stream, staged one window at a time into the windowed executor.
// Only the Simulator runs it threaded; the engine replays pin threads = 1.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/conflict_schedule.h"
#include "sim/parallel_executor.h"
#include "trace/contact_stream.h"
#include "util/errors.h"
#include "workload/workload.h"

namespace bsub::sim {

/// One merged scenario event: either a contact (payload inline) or a
/// message creation (index into the workload's message table).
struct ScenarioEvent {
  trace::Contact contact;            ///< valid when !is_message
  std::uint32_t message_index = 0;   ///< valid when is_message
  bool is_message = false;

  /// Event timestamp under the simulator's clock semantics.
  util::Time time(const std::vector<workload::Message>& messages) const {
    return is_message ? messages[message_index].created : contact.start;
  }

  /// Node endpoints for the conflict scheduler.
  EventNodes nodes(const std::vector<workload::Message>& messages) const {
    if (is_message) {
      return {messages[message_index].producer, EventNodes::kNoNode};
    }
    return {contact.a, contact.b};
  }
};

/// Merges a ContactStream with a workload's messages (which Workload keeps
/// sorted by creation time). Single-pass cursor with a one-contact
/// lookahead; reset() rewinds both sides.
class ScenarioEventStream {
 public:
  ScenarioEventStream(trace::ContactStream& contacts,
                      const workload::Workload& workload)
      : contacts_(&contacts), messages_(&workload.messages()) {
    has_contact_ = contacts_->next(pending_);
  }

  /// Pulls the next merged event; false when both inputs are exhausted.
  bool next(ScenarioEvent& out) {
    const auto& messages = *messages_;
    const bool take_message =
        message_index_ < messages.size() &&
        (!has_contact_ ||
         messages[message_index_].created <= pending_.start);
    if (take_message) {
      out.is_message = true;
      out.message_index = static_cast<std::uint32_t>(message_index_++);
      return true;
    }
    if (!has_contact_) return false;
    out.is_message = false;
    out.contact = pending_;
    has_contact_ = contacts_->next(pending_);
    return true;
  }

  void reset() {
    contacts_->reset();
    has_contact_ = contacts_->next(pending_);
    message_index_ = 0;
  }

 private:
  trace::ContactStream* contacts_;
  const std::vector<workload::Message>* messages_;
  trace::Contact pending_;
  bool has_contact_ = false;
  std::size_t message_index_ = 0;
};

/// The scenario's node count, after rejecting a workload built for a
/// different one (util::ConfigError): drivers size per-node state by the
/// scenario and read every node's interests, so a mismatch would index out
/// of bounds.
inline std::size_t scenario_node_count(const trace::ContactStream& contacts,
                                       const workload::Workload& workload) {
  const std::size_t nodes = contacts.node_count();
  if (workload.node_count() != nodes) {
    throw util::ConfigError(
        "workload has " + std::to_string(workload.node_count()) +
            " nodes but the scenario has " + std::to_string(nodes),
        "workload.node_count", "build the workload for the scenario's nodes");
  }
  return nodes;
}

/// The shared replay loop: `contacts` merged with `workload`'s message
/// creations, staged one window at a time into the windowed executor
/// (serial when threads resolve to 1). Construct it before sizing any
/// per-node state: the constructor rejects a mismatched workload.
class ScenarioReplay {
 public:
  ScenarioReplay(trace::ContactStream& contacts,
                 const workload::Workload& workload)
      : node_count_(scenario_node_count(contacts, workload)),
        events_(contacts, workload),
        messages_(&workload.messages()) {}

  std::size_t node_count() const { return node_count_; }
  /// Time of the last replayed event (0 until one ran).
  util::Time end_time() const { return end_time_; }

  /// Replays every event; `exec(event)` runs one — concurrently for
  /// node-disjoint events of a window.
  template <class Exec>
  ParallelRunStats run(const ParallelRunConfig& cfg, Exec&& exec) {
    const std::vector<workload::Message>& messages = *messages_;
    std::vector<ScenarioEvent> staged;  // reused: windows are sequential
    ParallelRunStats stats = run_windowed_parallel(
        node_count_,
        [&](std::span<EventNodes> slots) {
          staged.resize(slots.size());
          std::size_t n = 0;
          while (n < slots.size() && events_.next(staged[n])) {
            slots[n] = staged[n].nodes(messages);
            ++n;
          }
          if (n > 0) end_time_ = staged[n - 1].time(messages);
          return n;
        },
        [&](std::size_t j) { exec(staged[j]); }, cfg);
    // An empty scenario never engaged the pool; report it as the serial
    // run it effectively was.
    if (stats.events == 0) stats.threads_used = 1;
    return stats;
  }

 private:
  std::size_t node_count_;
  ScenarioEventStream events_;
  const std::vector<workload::Message>* messages_;
  util::Time end_time_ = 0;
};

}  // namespace bsub::sim
