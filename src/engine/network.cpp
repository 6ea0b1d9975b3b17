#include "engine/network.h"

#include <deque>
#include <stdexcept>

namespace bsub::engine {

BsubNode& Network::add_node(NodeId id) {
  auto [it, inserted] =
      nodes_.emplace(id, std::make_unique<BsubNode>(id, node_config_));
  if (!inserted) throw std::invalid_argument("Network: duplicate node id");
  BsubNode* node = it->second.get();
  node->set_delivery_handler(
      [this, id](const ContentMessage& msg, util::Time at) {
        if (per_node_log_) {
          per_node_deliveries_[id].push_back(
              DeliveryRecord{id, msg.id, msg.key, at});
        } else {
          deliveries_.push_back(DeliveryRecord{id, msg.id, msg.key, at});
        }
      });
  return *node;
}

void Network::use_per_node_delivery_log(std::size_t node_count) {
  per_node_log_ = true;
  per_node_deliveries_.resize(node_count);
}

const std::vector<DeliveryRecord>& Network::deliveries() const {
  if (!per_node_log_) return deliveries_;
  flattened_.clear();
  for (const auto& log : per_node_deliveries_) {
    flattened_.insert(flattened_.end(), log.begin(), log.end());
  }
  return flattened_;
}

BsubNode& Network::node(NodeId id) {
  auto it = nodes_.find(id);
  if (it == nodes_.end()) throw std::out_of_range("Network: unknown node");
  return *it->second;
}

const BsubNode& Network::node(NodeId id) const {
  auto it = nodes_.find(id);
  if (it == nodes_.end()) throw std::out_of_range("Network: unknown node");
  return *it->second;
}

ContactReport Network::contact(NodeId a, NodeId b, util::Time now,
                               util::Time duration,
                               double bandwidth_bytes_per_second) {
  BsubNode& na = node(a);
  BsubNode& nb = node(b);
  sim::Link link(duration, bandwidth_bytes_per_second);
  ContactReport report;

  struct Pending {
    NodeId to;
    std::vector<std::uint8_t> bytes;
  };
  std::deque<Pending> queue;
  for (auto& f : na.begin_contact(now)) queue.push_back({b, std::move(f)});
  for (auto& f : nb.begin_contact(now)) queue.push_back({a, std::move(f)});

  // Frame exchanges terminate naturally (data/genuine frames produce no
  // responses), but cap the rounds defensively.
  std::size_t safety = 100000;
  while (!queue.empty() && safety-- > 0) {
    Pending p = std::move(queue.front());
    queue.pop_front();
    if (!link.try_send(p.bytes.size())) {
      ++report.frames_dropped;
      continue;  // later (smaller) frames may still fit
    }
    ++report.frames_delivered;
    BsubNode& receiver = node(p.to);
    const NodeId other = (p.to == a) ? b : a;
    for (auto& response : receiver.handle(p.bytes, now)) {
      queue.push_back({other, std::move(response)});
    }
  }
  report.bytes_used = link.used_bytes();
  return report;
}

}  // namespace bsub::engine
