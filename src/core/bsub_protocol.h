// B-SUB: the complete publish-subscribe protocol (paper section V).
//
// Per contact between nodes x and y, in order:
//   1. TTL housekeeping on both buffers.
//   2. Broker election bookkeeping and rules (section V-B).
//   3. If both are brokers: exchange relay filters, make preferential-query
//      forwarding decisions on the pre-merge filters, then M-merge
//      (section V-C/V-D; A-merge available as the bogus-counter ablation).
//   4. Direct delivery both ways: each side reports a counter-less BF of its
//      interests; the other side hands over matching buffered messages
//      (producer-to-consumer and broker-to-consumer unified; section V-D).
//   5. Interest propagation: each side facing a broker sends its genuine
//      filter, A-merged into the broker's relay filter (section V-C).
//   6. Broker pickup: a broker sends its counter-less relay BF to the other
//      side, which replicates matching messages it produced, bounded by the
//      copy limit C (section V-D).
// Every transmission is gated by the contact's byte budget.
#pragma once

#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/broker_allocation.h"
#include "core/config.h"
#include "core/interest_manager.h"
#include "sim/expiry_index.h"
#include "sim/message_store.h"
#include "sim/protocol.h"
#include "util/dense_id_set.h"

namespace bsub::core {

/// The keys of a run's universe that a counter-less interest report answers
/// present: bit k is set iff report.contains_at(key_indices[k]), where
/// key_indices[k] are key k's bit positions for the report's params. A
/// report is static for a run, so this mask answers every later membership
/// probe of a key with one bit test — the same function of the same inputs.
util::DenseIdSet report_key_mask(const bloom::BloomFilter& report,
                                 std::span<const util::IndexArray> key_indices);

class BsubProtocol final : public sim::Protocol {
 public:
  explicit BsubProtocol(BsubConfig config = {});
  ~BsubProtocol() override;

  using sim::Protocol::on_start;
  void on_start(const sim::ScenarioInfo& scenario,
                const workload::Workload& workload,
                metrics::Collector& collector) override;
  void on_message_created(const workload::Message& msg,
                          util::Time now) override;
  void on_contact(trace::NodeId a, trace::NodeId b, util::Time now,
                  util::Time duration, sim::Link& link) override;
  void on_end(util::Time now) override;
  const char* name() const override { return "B-SUB"; }

  /// All mutable run state is per-node (buffers, filters, caches keyed by
  /// node) or commutative (relaxed-atomic tallies); the adaptive-DF cache is
  /// mutex-guarded and value-deterministic. See each member's comment.
  bool parallel_contacts_safe() const override { return true; }

  const BsubConfig& config() const { return config_; }

  /// Observability for tests and experiments (valid after on_start).
  const BrokerElection& election() const { return *election_; }
  const InterestManager& interests() const { return *interests_; }

  /// Mutable access for deployments that preset roles (and for tests that
  /// pin the election state). Valid after on_start.
  BrokerElection& election_mutable() { return *election_; }
  InterestManager& interests_mutable() { return *interests_; }

  /// Lifetime count of relay-filter false-positive pickups (ground truth).
  std::uint64_t false_injections() const {
    return false_injections_.load(std::memory_order_relaxed);
  }

  /// Breakdown of message-body transmissions by protocol step.
  struct TrafficBreakdown {
    std::uint64_t pickups = 0;           ///< producer -> broker replicas
    std::uint64_t broker_transfers = 0;  ///< broker -> broker custody moves
    std::uint64_t deliveries = 0;        ///< transfers to a consumer
  };
  /// Snapshot of the (atomic) traffic tallies; by value so readers never
  /// observe a torn struct while batch workers are still bumping it.
  TrafficBreakdown traffic() const {
    return TrafficBreakdown{
        traffic_pickups_.load(std::memory_order_relaxed),
        traffic_broker_transfers_.load(std::memory_order_relaxed),
        traffic_deliveries_.load(std::memory_order_relaxed)};
  }

  /// Time-averaged false-positive rate of the brokers' relay filters,
  /// measured by probing each relay with known-absent keys at every pickup
  /// opportunity (instrumentation; costs no protocol bytes). This is the
  /// operative FPR the paper's Fig. 9(d) tracks: it rises with relay load
  /// and falls as the DF drains interests.
  double measured_relay_fpr() const;

 private:
  struct OwnedMessage {
    workload::MessageId id;
    sim::MessageRef msg;  ///< borrowed from the workload's message table
    std::uint32_t copies_left;
  };

  /// Per-node producer state, materialized on first publication. Only nodes
  /// that actually produce pay for the buffer + expiry index; everyone else
  /// costs one null pointer. A null entry reads as an empty buffer.
  struct ProducerState {
    /// Messages this node produced, with remaining broker-copy budget,
    /// sorted by id. Ids arrive in creation order, so a publication is an
    /// append; broker_pickup compacts exhausted entries out in place.
    std::vector<OwnedMessage> produced;
    /// Expiry index over `produced` (fast path): purge pops only due
    /// entries and erases just those ids. Entries go stale when a message
    /// leaves early (copy budget exhausted), skipped lazily.
    sim::ExpiryIndex expiry;
  };

  /// Per-node broker-custody state, materialized on the first copy taken
  /// into custody. Only nodes that ever carried pay for the store and the
  /// two id bitmaps (⌈messages/64⌉·8 bytes each, sized from the run's
  /// dense message ids); a null entry reads as an empty store.
  struct CarrierState {
    explicit CarrierState(std::size_t messages)
        : falsely_injected(messages), carried_ever(messages) {}

    /// Messages this node carries for others.
    sim::MessageStore carried;
    /// Copies whose pickup was a relay false positive. Read only for ids in
    /// `carried`; a flag left behind when its copy expires is never read
    /// again (carried_ever keeps the id out for good), so purges leave it.
    util::DenseIdSet falsely_injected;
    /// Loop prevention: ids ever held — refused again, so a copy's
    /// broker-to-broker walk visits each broker at most once. Every add to
    /// `carried` also lands here, so carried ⊆ carried_ever.
    util::DenseIdSet carried_ever;
  };

  /// Per-node wire artifacts that are static for a run (a node's interest
  /// set never changes after on_start): the counter-less interest report,
  /// the genuine filter, and their exact encoded sizes. Built on first use;
  /// every later contact reuses them (an encode-cache hit).
  struct NodeFilterCache {
    bloom::BloomFilter report;
    /// report_key_mask(report): the report's verdict for every KeyId, so
    /// direct delivery tests one bit per message instead of k filter bits.
    util::DenseIdSet report_keys;
    std::size_t report_bytes = 0;
    bloom::Tcbf genuine;
    std::size_t genuine_bytes = 0;
    bool built = false;
  };

  const util::HashPair& key_hash(workload::KeyId key) const {
    return workload_->keys().hash(key);
  }
  /// Precomputed filter bit positions per key (fast path): the key universe
  /// and the filter geometry are both fixed for a run, so every membership
  /// probe in the contact loop reuses these instead of re-deriving k
  /// positions from the hash pair.
  const util::IndexArray& key_indices(workload::KeyId key) const {
    return key_indices_[key];
  }

  void build_filter_cache(NodeFilterCache& fc, trace::NodeId node) const;
  const NodeFilterCache& node_filters(trace::NodeId node);

  /// Materializing accessors (only the contact's own endpoints are ever
  /// touched, so writes to the pointer slots are race-free under
  /// node-disjoint batches, same as every other per-node vector here).
  ProducerState& producer_state(trace::NodeId node) {
    auto& p = producer_[node];
    if (p == nullptr) p = std::make_unique<ProducerState>();
    return *p;
  }
  CarrierState& carrier_state(trace::NodeId node) {
    auto& c = carrier_[node];
    if (c == nullptr) {
      c = std::make_unique<CarrierState>(workload_->messages().size());
    }
    return *c;
  }
  /// True if the node holds or ever held the id; null-safe (null = never
  /// carried = empty). One bit test, since carried ⊆ carried_ever.
  bool carries_or_carried(trace::NodeId node, workload::MessageId id) const {
    const CarrierState* c = carrier_[node].get();
    return c != nullptr && c->carried_ever.contains(id);
  }

  void purge(trace::NodeId node, util::Time now);
  void broker_exchange(trace::NodeId a, trace::NodeId b, util::Time now,
                       sim::Link& link);
  void forward_between_brokers(trace::NodeId from, trace::NodeId to,
                               const bloom::Tcbf& filter_from,
                               const bloom::Tcbf& filter_to,
                               sim::Link& link);
  void direct_delivery(trace::NodeId from, trace::NodeId to, util::Time now,
                       sim::Link& link);
  void propagate_interest(trace::NodeId consumer, trace::NodeId broker,
                          util::Time now, sim::Link& link);
  void broker_pickup(trace::NodeId producer, trace::NodeId broker,
                     util::Time now, sim::Link& link);
  void maybe_update_adaptive_df(trace::NodeId node, util::Time now);

  BsubConfig config_;
  const workload::Workload* workload_ = nullptr;
  metrics::Collector* collector_ = nullptr;
  std::unique_ptr<BrokerElection> election_;
  std::unique_ptr<InterestManager> interests_;

  /// Lazy per-node producer/custody state: one pointer per node, null until
  /// the node first publishes / first takes custody. The overwhelming
  /// majority of nodes at city scale never do either, so they cost 16 bytes
  /// here instead of ~260 bytes of empty container headers.
  std::vector<std::unique_ptr<ProducerState>> producer_;
  std::vector<std::unique_ptr<CarrierState>> carrier_;

  /// Per-key filter bit positions, indexed by KeyId (built at on_start).
  std::vector<util::IndexArray> key_indices_;

  /// Static wire artifacts, deduplicated by interest set: a NodeFilterCache
  /// is a pure function of the node's subscription *set* (plus the run's
  /// filter params), so nodes sharing a set share one entry. Per node: one
  /// pointer, null until the node's first use (which keeps the per-node
  /// encode-cache hit/miss accounting identical to the historical per-node
  /// cache). The index map and deque are mutex-guarded; built entries are
  /// immutable and deque-stable, so the pointer fast path takes no lock.
  std::vector<const NodeFilterCache*> filter_ptr_;
  std::deque<NodeFilterCache> shared_filters_;
  std::map<std::vector<workload::KeyId>, NodeFilterCache*> filter_index_;
  std::mutex filter_mu_;
  /// Reference mode (config_.reference_node_state): the historical private
  /// cache per node.
  std::vector<NodeFilterCache> filter_cache_;

  /// Cache for the adaptive-DF Eq. 4 evaluations, keyed by degree. Shared
  /// across nodes, so it is mutex-guarded; harmless for determinism because
  /// the cached value is a pure function of the key (degree).
  std::mutex emin_mu_;
  std::unordered_map<std::size_t, double> emin_cache_;

  /// Commutative tallies — relaxed atomics so concurrent batch workers can
  /// bump them; integer addition makes the totals schedule-independent.
  std::atomic<std::uint64_t> false_injections_{0};
  std::atomic<std::uint64_t> traffic_pickups_{0};
  std::atomic<std::uint64_t> traffic_broker_transfers_{0};
  std::atomic<std::uint64_t> traffic_deliveries_{0};
  std::atomic<std::uint64_t> fpr_probes_{0};
  std::atomic<std::uint64_t> fpr_hits_{0};
};

}  // namespace bsub::core
