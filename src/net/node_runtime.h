// One live B-SUB endpoint: an engine::BsubNode wired to a datagram
// transport through contact sessions, driven by a reactor.
//
// The runtime is the glue layer the bsub_node daemon and the fleet share:
//
//   - outbound: connect(peer) opens a Session and feeds it the node's
//     begin_contact() frames (the B-SUB HELLO);
//   - inbound: datagrams are routed to the peer's session (created
//     passively on first contact — the passive side also emits its own
//     HELLO, as the encounter protocol requires); each reassembled frame
//     goes through BsubNode::handle(), and the response frames go straight
//     back out on the same session;
//   - timers: a periodic decay tick drives TCBF decay and expiry purging
//     through the reactor's timer wheel, so a daemon idling between
//     contacts keeps its filters honest.
//
// The persistent per-node state (the BsubNode, its session-epoch counter)
// outlives the attachment to a transport and reactor, which is explicit:
//
//   bind(transport, reactor)   claim the transport's receive upcall, start
//                              the decay tick (if configured);
//   unbind()                   abort any leftover sessions, release the
//                              transport.
//
// A daemon, a UDP shard or a test binds a runtime once and keeps it bound;
// the fleet's deterministic loopback replay binds it for exactly one
// contact (decay_tick must be 0 there — there is no timeline between
// contacts).
//
// Everything runs on the bound reactor's thread; the runtime needs no locks.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "engine/node.h"
#include "metrics/collector.h"
#include "net/reactor.h"
#include "net/session.h"
#include "net/transport.h"

namespace bsub::net {

struct RuntimeConfig {
  /// The §V protocol constants (filters, C, DF, copies, gating, merge);
  /// the fleet also reads its election knobs from here.
  core::BsubConfig node;
  SessionConfig session;
  /// Period of the TCBF decay / expiry-purge tick; 0 disables it.
  util::Time decay_tick = util::kMinute;
};

class NodeRuntime {
 public:
  using SessionClosedHandler =
      std::function<void(Endpoint peer, SessionCloseReason)>;

  NodeRuntime(engine::NodeId id, const RuntimeConfig& config,
              metrics::TransportCounters& counters);
  ~NodeRuntime();

  NodeRuntime(const NodeRuntime&) = delete;
  NodeRuntime& operator=(const NodeRuntime&) = delete;

  engine::BsubNode& node() { return node_; }
  const engine::BsubNode& node() const { return node_; }

  /// Attaches the node: claims `transport`'s receive handler and arms the
  /// decay tick (if configured). Both references must outlive the binding.
  /// Throws std::logic_error if already bound.
  void bind(Transport& transport, Reactor& reactor);

  /// Detaches: aborts any session still alive (no datagrams are sent —
  /// graceful closes are the caller's job before it unbinds), disarms the
  /// decay tick, releases the transport. Idempotent.
  void unbind();

  bool bound() const { return transport_ != nullptr; }
  /// The bound transport's local address; requires bound().
  Endpoint endpoint() const { return transport_->local_endpoint(); }

  /// Opens a contact session toward `peer` and sends this node's HELLO.
  /// `budget` (optional) is the shared contact byte budget. No-op if a
  /// session to the peer is already live. Throws std::logic_error while
  /// unbound.
  Session& connect(Endpoint peer,
                   std::shared_ptr<sim::Link> budget = nullptr);

  /// Graceful FIN teardown of the session to `peer` (no-op if none).
  void close(Endpoint peer);
  /// Immediate teardown without datagrams.
  void abort(Endpoint peer);
  /// Graceful teardown of every live session (daemon shutdown).
  void close_all();

  bool has_session(Endpoint peer) const {
    return sessions_.contains(peer);
  }
  Session* session(Endpoint peer);
  std::size_t session_count() const { return sessions_.size(); }

  /// True when no session has frames in flight (the quiescence test for a
  /// loopback contact window).
  bool all_sessions_idle() const;

  void set_session_closed_handler(SessionClosedHandler handler) {
    on_session_closed_ = std::move(handler);
  }

 private:
  void on_transport_datagram(Endpoint from,
                             std::span<const std::uint8_t> bytes);
  Session& make_session(Endpoint peer, std::shared_ptr<sim::Link> budget);
  void arm_decay_tick();

  engine::BsubNode node_;
  RuntimeConfig config_;
  metrics::TransportCounters& counters_;
  Transport* transport_ = nullptr;
  Reactor* reactor_ = nullptr;
  std::map<Endpoint, std::unique_ptr<Session>> sessions_;
  /// Sessions whose close handler already fired, awaiting safe destruction
  /// (a session must not be deleted while its own callback is on the
  /// stack); drained at the next runtime entry point.
  std::vector<std::unique_ptr<Session>> graveyard_;
  SessionClosedHandler on_session_closed_;
  Reactor::TimerId decay_timer_ = TimerWheel::kInvalidTimer;
  /// Session incarnation counter; node-lifetime, so it survives rebinds.
  std::uint32_t next_epoch_ = 0;
};

}  // namespace bsub::net
