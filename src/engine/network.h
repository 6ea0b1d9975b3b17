// In-memory network harness for live BsubNodes: executes byte-budgeted
// frame exchanges between pairs of nodes, exactly as a contact window would.
//
// The harness is transport-shaped: it moves opaque byte vectors between
// nodes and charges each against the contact's budget — nothing protocol-
// specific lives here, so swapping in a real socket transport only replaces
// this class.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "engine/node.h"
#include "sim/link.h"
#include "util/time.h"

namespace bsub::engine {

/// One completed consumer delivery observed by the harness.
struct DeliveryRecord {
  NodeId consumer = 0;
  std::uint64_t message_id = 0;
  std::string key;
  util::Time at = 0;
};

/// Outcome of one contact's frame exchange.
struct ContactReport {
  std::uint64_t bytes_used = 0;
  std::size_t frames_delivered = 0;
  std::size_t frames_dropped = 0;  ///< budget exhausted mid-exchange
};

class Network {
 public:
  explicit Network(core::BsubConfig node_config = {})
      : node_config_(node_config) {}

  /// Creates a node; ids must be unique.
  BsubNode& add_node(NodeId id);

  BsubNode& node(NodeId id);
  const BsubNode& node(NodeId id) const;
  std::size_t size() const { return nodes_.size(); }

  /// Runs the full frame exchange for one contact of the given duration and
  /// bandwidth. Frames are processed alternately (a's queue, then b's) and
  /// every frame's wire size is charged against the shared budget; once the
  /// budget runs out the remaining frames are lost.
  ContactReport contact(NodeId a, NodeId b, util::Time now,
                        util::Time duration,
                        double bandwidth_bytes_per_second =
                            sim::kDefaultBandwidthBytesPerSecond);

  /// Switches delivery recording to per-node logs (ids must be dense in
  /// [0, node_count)). deliveries() then reports node-major order — the
  /// canonical order every replay substrate (TraceRunner, the fleet)
  /// shares — instead of global arrival order.
  void use_per_node_delivery_log(std::size_t node_count);

  /// All consumer deliveries seen so far: global arrival order by default,
  /// node-major (then per-node arrival) order in per-node-log mode.
  const std::vector<DeliveryRecord>& deliveries() const;

 private:
  core::BsubConfig node_config_;
  std::map<NodeId, std::unique_ptr<BsubNode>> nodes_;
  std::vector<DeliveryRecord> deliveries_;
  std::vector<std::vector<DeliveryRecord>> per_node_deliveries_;
  bool per_node_log_ = false;
  mutable std::vector<DeliveryRecord> flattened_;  ///< deliveries() cache
};

}  // namespace bsub::engine
