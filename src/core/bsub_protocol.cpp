#include "core/bsub_protocol.h"

#include <algorithm>
#include <optional>
#include <string_view>

#include "bloom/tcbf_codec.h"
#include "core/df_tuning.h"
#include "util/binomial.h"

namespace bsub::core {

namespace {

/// One memoized value per KeyId for the duration of a single scan. The
/// scans that use it (direct delivery's relay gate, pickup's relay gate,
/// the broker-to-broker preference ranking) mutate no filter inside their
/// loop — no insert, merge or decay happens between two messages — so a
/// key's verdict is a constant of the scan: it is computed at the key's
/// first message and reused for every later copy of the same key. begin()
/// forgets all verdicts in O(1) by bumping a generation stamp; callers keep
/// one thread_local instance per scan, so concurrent batch workers never
/// share one.
template <class V>
class KeyMemo {
 public:
  void begin(std::size_t keys) {
    if (slots_.size() < keys) slots_.resize(keys);
    if (++generation_ == 0) {  // wrapped: no stale stamp may match again
      for (Slot& s : slots_) s.stamp = 0;
      generation_ = 1;
    }
  }

  template <class Fn>
  V get(workload::KeyId key, Fn&& compute) {
    Slot& s = slots_[key];
    if (s.stamp != generation_) {
      s.value = compute();
      s.stamp = generation_;
    }
    return s.value;
  }

 private:
  struct Slot {
    std::uint32_t stamp = 0;  ///< generation that computed `value`
    V value{};
  };
  std::vector<Slot> slots_;
  std::uint32_t generation_ = 0;
};

}  // namespace

util::DenseIdSet report_key_mask(
    const bloom::BloomFilter& report,
    std::span<const util::IndexArray> key_indices) {
  util::DenseIdSet mask(key_indices.size());
  for (workload::KeyId k = 0; k < key_indices.size(); ++k) {
    if (report.contains_at(key_indices[k])) mask.insert(k);
  }
  return mask;
}

BsubProtocol::BsubProtocol(BsubConfig config) : config_(config) {}

BsubProtocol::~BsubProtocol() = default;

double BsubProtocol::measured_relay_fpr() const {
  const std::uint64_t probes = fpr_probes_.load(std::memory_order_relaxed);
  const std::uint64_t hits = fpr_hits_.load(std::memory_order_relaxed);
  return probes == 0 ? 0.0
                     : static_cast<double>(hits) / static_cast<double>(probes);
}

void BsubProtocol::on_start(const sim::ScenarioInfo& scenario,
                            const workload::Workload& workload,
                            metrics::Collector& collector) {
  const std::size_t nodes = scenario.node_count;
  workload_ = &workload;
  collector_ = &collector;
  election_ = std::make_unique<BrokerElection>(nodes,
                                               election_config(config_));
  interests_ = std::make_unique<InterestManager>(
      workload.keys(), nodes, config_.filter_params, config_.initial_counter,
      config_.df_per_minute, /*eager_state=*/config_.reference_node_state);
  producer_.clear();
  producer_.resize(nodes);
  carrier_.clear();
  carrier_.resize(nodes);
  if (config_.reference_node_state) {
    filter_cache_.assign(nodes, NodeFilterCache());
    filter_ptr_.clear();
  } else {
    filter_ptr_.assign(nodes, nullptr);
    filter_cache_.clear();
  }
  shared_filters_.clear();
  filter_index_.clear();
  key_indices_.clear();
  key_indices_.reserve(workload.keys().size());
  for (workload::KeyId k = 0; k < workload.keys().size(); ++k) {
    key_indices_.push_back(util::bloom_indices(
        workload.keys().hash(k), config_.filter_params.k,
        config_.filter_params.m));
  }
  false_injections_.store(0, std::memory_order_relaxed);
  traffic_pickups_.store(0, std::memory_order_relaxed);
  traffic_broker_transfers_.store(0, std::memory_order_relaxed);
  traffic_deliveries_.store(0, std::memory_order_relaxed);
  fpr_probes_.store(0, std::memory_order_relaxed);
  fpr_hits_.store(0, std::memory_order_relaxed);
}

void BsubProtocol::on_message_created(const workload::Message& msg,
                                      util::Time /*now*/) {
  // The simulator hands a reference into the workload's stable message
  // table, so the fast path borrows the payload; the reference path keeps
  // the historical deep copy per producer buffer.
  auto& hp = collector_->hot_path();
  sim::MessageRef ref;
  if (config_.reference_contact_path) {
    ref = std::make_shared<const workload::Message>(msg);
    ++hp.payload_copies_made;
  } else {
    ref = sim::borrow_message(msg);
    ++hp.payload_copies_avoided;
  }
  // Ids arrive in creation order, so the insert lands at the end; a
  // repeated id is ignored.
  ProducerState& ps = producer_state(msg.producer);
  auto& produced = ps.produced;
  const auto pos = std::lower_bound(
      produced.begin(), produced.end(), msg.id,
      [](const OwnedMessage& o, workload::MessageId v) { return o.id < v; });
  if (pos == produced.end() || pos->id != msg.id) {
    produced.insert(pos, OwnedMessage{msg.id, std::move(ref),
                                      config_.copy_limit});
  }
  ps.expiry.add(msg.expiry(), msg.id);
}

void BsubProtocol::purge(trace::NodeId node, util::Time now) {
  // Null producer/carrier state reads as empty buffers: nothing to purge.
  ProducerState* ps = producer_[node].get();
  CarrierState* cs = carrier_[node].get();
  if (config_.reference_contact_path) {
    if (ps != nullptr) {
      std::erase_if(ps->produced, [now](const OwnedMessage& o) {
        return o.msg->expired_at(now);
      });
    }
    if (cs != nullptr) cs->carried.purge_expired_scan(now);
    return;
  }
  // Fast path: the expiry index proves in O(1) that nothing in produced
  // expired since the last purge; otherwise only the due ids are looked up
  // and erased (entries for messages that already left via copy exhaustion
  // are stale and skipped). Neither path clears the falsely_injected flags
  // of expired copies: a stale flag is never read (see CarrierState).
  auto& hp = collector_->hot_path();
  if (ps != nullptr) {
    if (!ps->expiry.due(now)) {
      ++hp.purge_scans_skipped;
    } else {
      ++hp.purge_scans_run;
      sim::erase_due(ps->produced, ps->expiry, now);
    }
  }
  if (cs != nullptr) cs->carried.purge_expired(now);
}

void BsubProtocol::build_filter_cache(NodeFilterCache& fc,
                                      trace::NodeId node) const {
  // A node's interest set is fixed for the whole run, so its interest
  // report, genuine filter, and their exact wire sizes are run constants.
  fc.report = interests_->make_report(workload_->interests_of(node));
  fc.report_keys = report_key_mask(fc.report, key_indices_);
  fc.report_bytes = bloom::encoded_bloom_wire_size(fc.report);
  fc.genuine = interests_->make_genuine(workload_->interests_of(node));
  fc.genuine_bytes = bloom::encoded_tcbf_wire_size(
      fc.genuine, bloom::CounterEncoding::kUniform);
  fc.built = true;
}

const BsubProtocol::NodeFilterCache& BsubProtocol::node_filters(
    trace::NodeId node) {
  auto& hp = collector_->hot_path();
  if (config_.reference_node_state) {
    NodeFilterCache& fc = filter_cache_[node];
    if (!fc.built) {
      build_filter_cache(fc, node);
      ++hp.encode_cache_misses;
    } else {
      ++hp.encode_cache_hits;
    }
    return fc;
  }
  if (const NodeFilterCache* fc = filter_ptr_[node]) {
    ++hp.encode_cache_hits;
    return *fc;
  }
  // First use for this node counts as a miss (same accounting as the
  // historical per-node cache), even when another node already built the
  // shared entry.
  ++hp.encode_cache_misses;
  // Canonical key: filter contents are a pure function of the interest
  // *set* — insertion order cannot change final bits/counters and repeats
  // are idempotent — so nodes sharing a subscription set share one entry.
  const std::span<const workload::KeyId> node_keys =
      workload_->interests_of(node);
  std::vector<workload::KeyId> canon(node_keys.begin(), node_keys.end());
  std::sort(canon.begin(), canon.end());
  canon.erase(std::unique(canon.begin(), canon.end()), canon.end());
  std::lock_guard<std::mutex> lock(filter_mu_);
  auto [it, inserted] = filter_index_.try_emplace(std::move(canon), nullptr);
  if (inserted) {
    shared_filters_.emplace_back();
    build_filter_cache(shared_filters_.back(), node);
    it->second = &shared_filters_.back();
  }
  filter_ptr_[node] = it->second;
  return *it->second;
}

void BsubProtocol::maybe_update_adaptive_df(trace::NodeId node,
                                            util::Time now) {
  if (!config_.adaptive_df || !election_->is_broker(node)) return;
  // The broker re-derives Eq. 5 from the distinct nodes it met in its own
  // window — the online estimation the paper sketches in section VII-B.
  const std::size_t degree = election_->degree(node, now);
  double emin;
  {
    // The cache is the only cross-node mutable map in the contact path;
    // a mutex keeps it safe under concurrent batches, and determinism is
    // unaffected because the value is a pure function of the degree (two
    // workers racing on a miss compute the identical number).
    std::lock_guard<std::mutex> lock(emin_mu_);
    auto it = emin_cache_.find(degree);
    if (it == emin_cache_.end()) {
      const double p = static_cast<double>(config_.filter_params.k) /
                       static_cast<double>(config_.filter_params.m);
      it = emin_cache_
               .emplace(degree, util::expected_min_binomial(
                                    degree, p, config_.filter_params.k))
               .first;
    }
    emin = it->second;
  }
  const double df = config_.initial_counter * (1.0 + emin) /
                        util::to_minutes(config_.df_window) +
                    0.01;
  interests_->set_node_df(node, df);
}

void BsubProtocol::on_contact(trace::NodeId a, trace::NodeId b, util::Time now,
                              util::Time /*duration*/, sim::Link& link) {
  purge(a, now);
  purge(b, now);

  // Role flips keep the relay filter: the election churns (nodes hover
  // around the thresholds), and decay already retires stale relay state —
  // clearing on every flip would destroy live routes for nothing. A
  // re-promoted broker simply resumes from its decayed filter.
  election_->on_contact(a, b, now);
  maybe_update_adaptive_df(a, now);
  maybe_update_adaptive_df(b, now);

  const bool a_broker = election_->is_broker(a);
  const bool b_broker = election_->is_broker(b);

  if (a_broker && b_broker) broker_exchange(a, b, now, link);

  direct_delivery(a, b, now, link);
  direct_delivery(b, a, now, link);

  // Pickups run against the relay state as it stood when the nodes met;
  // absorbing this contact's own interest report happens afterwards.
  // (Otherwise every pickup would see the partner's interest freshly
  // re-inserted at full strength and the decaying factor would never bite.)
  if (b_broker) broker_pickup(a, b, now, link);
  if (a_broker) broker_pickup(b, a, now, link);

  if (b_broker) propagate_interest(a, b, now, link);
  if (a_broker) propagate_interest(b, a, now, link);
}

void BsubProtocol::broker_exchange(trace::NodeId a, trace::NodeId b,
                                   util::Time now, sim::Link& link) {
  if (config_.reference_contact_path) {
    // Decay both relay filters up to the contact, then exchange them. The
    // forwarding decisions use the pre-merge snapshots (section V-D).
    const bloom::Tcbf snap_a = interests_->relay(a, now);
    const bloom::Tcbf snap_b = interests_->relay(b, now);
    const std::span<const double> live_a = interests_->shadow_snapshot(a);
    const std::span<const double> live_b = interests_->shadow_snapshot(b);
    const std::vector<double> shadow_a(live_a.begin(), live_a.end());
    const std::vector<double> shadow_b(live_b.begin(), live_b.end());

    const auto enc_a =
        bloom::encode_tcbf(snap_a, bloom::CounterEncoding::kFull);
    const auto enc_b =
        bloom::encode_tcbf(snap_b, bloom::CounterEncoding::kFull);
    if (!link.try_send(enc_a.size() + enc_b.size())) return;
    collector_->record_control_bytes(enc_a.size() + enc_b.size());

    forward_between_brokers(a, b, snap_a, snap_b, link);
    forward_between_brokers(b, a, snap_b, snap_a, link);

    interests_->merge_relay_from(a, snap_b, shadow_b, config_.broker_merge,
                                 now);
    interests_->merge_relay_from(b, snap_a, shadow_a, config_.broker_merge,
                                 now);
    return;
  }
  // Fast path. Forwarding decisions run before either merge, so the live
  // (decayed) filters *are* the pre-merge snapshots — no copies needed for
  // ranking. The exchange's byte cost comes from the exact wire-size
  // formula; the encodings themselves are never materialized because the
  // simulator only charges their sizes against the link budget.
  bloom::Tcbf& relay_a = interests_->relay(a, now);
  bloom::Tcbf& relay_b = interests_->relay(b, now);
  const std::size_t bytes =
      bloom::encoded_tcbf_wire_size(relay_a, bloom::CounterEncoding::kFull) +
      bloom::encoded_tcbf_wire_size(relay_b, bloom::CounterEncoding::kFull);
  if (!link.try_send(bytes)) return;
  collector_->record_control_bytes(bytes);

  forward_between_brokers(a, b, relay_a, relay_b, link);
  forward_between_brokers(b, a, relay_b, relay_a, link);

  // The first merge mutates a, so only a's pre-merge state needs to survive
  // in scratch; b's live state feeds the first merge directly. thread_local
  // (not members) so concurrent batch workers each get their own buffers
  // while the capacity still survives across contacts on a worker.
  thread_local bloom::Tcbf scratch_relay;
  thread_local std::vector<double> scratch_shadow;
  scratch_relay = relay_a;
  const std::span<const double> shadow_a = interests_->shadow_snapshot(a);
  scratch_shadow.assign(shadow_a.begin(), shadow_a.end());
  interests_->merge_relay_from(a, relay_b, interests_->shadow_snapshot(b),
                               config_.broker_merge, now);
  interests_->merge_relay_from(b, scratch_relay, scratch_shadow,
                               config_.broker_merge, now);
}

void BsubProtocol::forward_between_brokers(trace::NodeId from,
                                           trace::NodeId to,
                                           const bloom::Tcbf& filter_from,
                                           const bloom::Tcbf& filter_to,
                                           sim::Link& link) {
  // Rank carried messages by the peer's preference over ours; only positive
  // preferences move (the peer is a strictly better custodian).
  struct Candidate {
    double pref;
    workload::MessageId id;
  };
  CarrierState* cs_from = carrier_[from].get();
  if (cs_from == nullptr) return;  // never carried anything: nothing to move
  // thread_local scratch: each batch worker reuses its own capacity.
  thread_local std::vector<Candidate> ranked;
  thread_local KeyMemo<double> pref_memo;
  ranked.clear();
  const bool ref_path = config_.reference_contact_path;
  if (!ref_path) pref_memo.begin(workload_->keys().size());
  std::uint64_t visited = 0;
  std::uint64_t probes = 0;
  for (const auto& [id, msg] : cs_from->carried) {
    ++visited;
    if (msg->producer == to) continue;
    if (carries_or_carried(to, id)) continue;
    // Fast path: one preferential query per distinct key over the interned
    // bit positions; neither filter changes while ranking, so the value is
    // the same for every copy of the key. Bit-identical to the hash-pair
    // overload the reference path keeps exercising per message.
    double pref;
    if (ref_path) {
      ++probes;
      pref = bloom::preference(filter_to, filter_from, key_hash(msg->key));
    } else {
      pref = pref_memo.get(msg->key, [&] {
        ++probes;
        return bloom::preference_at(filter_to, filter_from,
                                    key_indices(msg->key));
      });
    }
    if (pref > 0.0) ranked.push_back({pref, id});
  }
  auto& hp = collector_->hot_path();
  if (visited != 0) hp.ranking_entries_scanned += visited;
  if (probes != 0) hp.filter_probes += probes;
  std::sort(ranked.begin(), ranked.end(), [](const Candidate& x,
                                             const Candidate& y) {
    return std::tie(y.pref, x.id) < std::tie(x.pref, y.id);  // pref desc
  });

  for (const Candidate& c : ranked) {
    sim::MessageRef msg = cs_from->carried.find_ref(c.id);
    if (!link.try_send(msg->size_bytes)) break;
    collector_->record_forwarding(*msg);
    traffic_broker_transfers_.fetch_add(1, std::memory_order_relaxed);
    CarrierState& cs_to = carrier_state(to);
    if (config_.reference_contact_path) {
      cs_to.carried.add(*msg);  // naive reference: deep copy per custody move
    } else {
      cs_to.carried.add(msg);  // custody moves by sharing the payload
    }
    cs_to.carried_ever.insert(c.id);
    if (cs_from->falsely_injected.contains(c.id)) {
      cs_to.falsely_injected.insert(c.id);
    }
    // Single custody between brokers: the sender drops its copy.
    cs_from->carried.remove(c.id);
    cs_from->falsely_injected.erase(c.id);
  }
}

void BsubProtocol::direct_delivery(trace::NodeId from, trace::NodeId to,
                                   util::Time now, sim::Link& link) {
  // The consumer side reports a counter-less BF of its interests. Interests
  // are static per run, so the fast path reuses the cached report, its
  // exact wire size and its per-key verdicts; the reference path rebuilds
  // and re-encodes per contact and probes the filter per message. Only the
  // reference path owns a filter here, so the fast path allocates nothing
  // per call.
  std::optional<bloom::BloomFilter> ref_report;
  const bloom::BloomFilter* report = nullptr;
  const util::DenseIdSet* report_keys = nullptr;
  std::size_t report_bytes = 0;
  if (config_.reference_contact_path) {
    ref_report = interests_->make_report(workload_->interests_of(to));
    report_bytes = bloom::encode_bloom(*ref_report).size();
    report = &*ref_report;
  } else {
    const NodeFilterCache& fc = node_filters(to);
    report_keys = &fc.report_keys;
    report_bytes = fc.report_bytes;
  }
  if (!link.try_send(report_bytes)) return;
  collector_->record_control_bytes(report_bytes);

  const bool fast = !config_.reference_contact_path;
  std::uint64_t visited = 0;
  std::uint64_t probes = 0;

  // Returns false when the link budget is exhausted. `falsely_fn` defers
  // the false-injection lookup to the (rare) moment a delivery actually
  // happens; probes that miss pay nothing for it.
  auto try_deliver = [&](const workload::Message& msg,
                         auto&& falsely_fn) -> bool {
    if (msg.producer == to) return true;
    // Fast path: the report's verdict for the key, precomputed over the
    // interned bit positions (report_key_mask) — one bit test.
    bool hit;
    if (fast) {
      hit = report_keys->contains(msg.key);
    } else {
      ++probes;
      hit = report->contains(key_hash(msg.key));
    }
    if (!hit) return true;
    if (collector_->delivered(msg.id, to)) return true;
    if (!link.try_send(msg.size_bytes)) return false;
    collector_->record_forwarding(msg);
    traffic_deliveries_.fetch_add(1, std::memory_order_relaxed);
    collector_->record_delivery(msg, to, now,
                                workload_->is_interested(to, msg.key),
                                falsely_fn());
    return true;
  };

  bool open = true;  // false once the link budget runs out
  if (const ProducerState* ps = producer_[from].get()) {
    auto not_falsely = [] { return false; };
    for (const OwnedMessage& owned : ps->produced) {
      ++visited;
      if (!(open = try_deliver(*owned.msg, not_falsely))) break;
    }
  }
  // Carried copies stay in custody after a delivery so one replica can
  // serve several subscribers of the same key; the per-broker carried_ever
  // memory already bounds how far a copy can wander between brokers.
  // Reverse-path gating: a broker offers a copy only while its relay filter
  // still routes the key (section V-C's delivery tree). Demoted ex-brokers
  // have no relay authority anymore; they serve their leftover copies
  // ungated until TTL (they cannot acquire new ones).
  CarrierState* cs = open ? carrier_[from].get() : nullptr;
  if (cs != nullptr) {
    const bloom::Tcbf* relay = nullptr;
    if (config_.relay_gated_delivery && !cs->carried.empty() &&
        election_->is_broker(from)) {
      relay = &interests_->relay(from, now);
    }
    // Fast path: the relay gate is probed once per distinct key. Nothing
    // in this loop touches a filter, so every copy of a key shares the
    // verdict of its first.
    thread_local KeyMemo<bool> gate;
    if (fast && relay != nullptr) gate.begin(workload_->keys().size());
    for (const auto& [id, msg] : cs->carried) {
      ++visited;
      if (relay != nullptr) {
        bool routed;
        if (fast) {
          routed = gate.get(msg->key, [&, &msg = msg] {
            ++probes;
            return relay->contains_at(key_indices(msg->key));
          });
        } else {
          ++probes;
          routed = relay->contains(key_hash(msg->key));
        }
        if (!routed) continue;
      }
      auto falsely = [&, &id = id] {
        return cs->falsely_injected.contains(id);
      };
      if (!try_deliver(*msg, falsely)) break;
    }
  }
  auto& hp = collector_->hot_path();
  if (visited != 0) hp.delivery_entries_scanned += visited;
  if (probes != 0) hp.filter_probes += probes;
}

void BsubProtocol::propagate_interest(trace::NodeId consumer,
                                      trace::NodeId broker, util::Time now,
                                      sim::Link& link) {
  const std::span<const workload::KeyId> keys =
      workload_->interests_of(consumer);
  if (config_.reference_contact_path) {
    const bloom::Tcbf genuine = interests_->make_genuine(keys);
    // Fresh genuine filters have identical counters: uniform encoding.
    const auto enc =
        bloom::encode_tcbf(genuine, bloom::CounterEncoding::kUniform);
    if (!link.try_send(enc.size())) return;
    collector_->record_control_bytes(enc.size());
    interests_->absorb_genuine(broker, genuine, keys, now);
    return;
  }
  // Fast path: the genuine filter is a pure function of the consumer's
  // static interest set — reuse the cached build and its uniform-encoding
  // wire size.
  const NodeFilterCache& fc = node_filters(consumer);
  if (!link.try_send(fc.genuine_bytes)) return;
  collector_->record_control_bytes(fc.genuine_bytes);
  interests_->absorb_genuine(broker, fc.genuine, keys, now);
}

void BsubProtocol::broker_pickup(trace::NodeId producer, trace::NodeId broker,
                                 util::Time now, sim::Link& link) {
  // The broker ships its relay filter counter-less (section VI-C: "when a
  // broker requests messages from a source, it does not need to report the
  // counters").
  const bool ref_path = config_.reference_contact_path;
  bloom::Tcbf& relay = interests_->relay(broker, now);
  std::optional<bloom::BloomFilter> relay_bf;  // reference path only
  std::size_t enc_bytes = 0;
  if (ref_path) {
    relay_bf = relay.to_bloom_filter();
    enc_bytes = bloom::encode_bloom(*relay_bf).size();
  } else {
    // The TCBF answers counter-less membership directly (bit set iff its
    // effective counter is positive — exactly to_bloom_filter's bits), so
    // the fast path skips both the BF materialization and the encode.
    enc_bytes = bloom::encoded_bloom_wire_size(relay.popcount(),
                                               relay.params());
  }
  if (!link.try_send(enc_bytes)) return;
  collector_->record_control_bytes(enc_bytes);

  // Instrumentation: probe the relay with keys guaranteed absent (the \x01
  // prefix is outside the workload universe) to sample the operative relay
  // FPR over time. Probe strings rotate so the estimate averages over the
  // key space instead of pinning 8 fixed bit patterns — and they are a pure
  // function of the contact (producer, broker, time, slot), never of a
  // global sequence number, so the sampled FPR is identical whatever order
  // non-conflicting contacts execute in. Each probe key is the 23 bytes
  // "\x01probe:" + 16 lowercase hex digits of the slot's mix, written in
  // place one nibble at a time (no formatting, no allocation).
  static constexpr char kPrefix[] = "\x01probe:";
  static constexpr std::size_t kPrefixLen = sizeof(kPrefix) - 1;
  static constexpr char kHex[] = "0123456789abcdef";
  char probe[kPrefixLen + 16];
  std::copy_n(kPrefix, kPrefixLen, probe);
  std::uint64_t mix = static_cast<std::uint64_t>(producer) << 32 |
                      static_cast<std::uint64_t>(broker);
  mix ^= static_cast<std::uint64_t>(now) * 0x9e3779b97f4a7c15ull;
  std::uint64_t local_hits = 0;
  for (int i = 0; i < 8; ++i) {
    // splitmix64 finalizer over the contact identity + slot.
    std::uint64_t z = mix + 0x9e3779b97f4a7c15ull * (std::uint64_t)(i + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    for (std::size_t d = 0; d < 16; ++d) {
      probe[kPrefixLen + d] = kHex[(z >> (60 - 4 * d)) & 0xf];
    }
    const std::string_view key(probe, sizeof(probe));
    local_hits += ref_path ? relay_bf->contains(key) : relay.contains(key);
  }
  fpr_probes_.fetch_add(8, std::memory_order_relaxed);
  fpr_hits_.fetch_add(local_hits, std::memory_order_relaxed);

  ProducerState* ps = producer_[producer].get();
  if (ps == nullptr) return;  // never produced: nothing to pick up
  // Fast path: the relay gate is probed once per distinct key (the relay
  // is not touched inside the loop; the ground-truth lookup below only
  // reads the shadow, already decayed to `now`). Exhausted entries are
  // compacted out in place: `out` trails `in` once the first one goes.
  thread_local KeyMemo<bool> gate;
  if (!ref_path) gate.begin(workload_->keys().size());
  std::uint64_t visited = 0;
  std::uint64_t probes = 0;
  auto& produced = ps->produced;
  auto in = produced.begin();
  auto out = in;
  for (; in != produced.end(); ++in) {
    ++visited;
    OwnedMessage& owned = *in;
    const workload::Message& msg = *owned.msg;
    const bool eligible =
        owned.copies_left != 0 && !carries_or_carried(broker, msg.id);
    bool relay_hit;
    if (ref_path) {
      ++probes;
      relay_hit = relay_bf->contains(key_hash(msg.key));
    } else {
      relay_hit = eligible && gate.get(msg.key, [&] {
        ++probes;
        return relay.contains_at(key_indices(msg.key));
      });
    }
    if (eligible && relay_hit) {
      if (!link.try_send(msg.size_bytes)) break;
      collector_->record_forwarding(msg);
      traffic_pickups_.fetch_add(1, std::memory_order_relaxed);
      CarrierState& cs = carrier_state(broker);
      if (ref_path) {
        cs.carried.add(msg);  // naive deep copy into the broker buffer
      } else {
        cs.carried.add(owned.msg);  // share the producer's payload
      }
      cs.carried_ever.insert(msg.id);
      // Ground truth: a pickup whose key the relay never genuinely absorbed
      // is a false injection (Bloom false positive of the relay filter).
      if (!interests_->genuinely_contains(broker, msg.key, now)) {
        cs.falsely_injected.insert(msg.id);
        false_injections_.fetch_add(1, std::memory_order_relaxed);
      }
      // Copy budget exhausted: the producer forgets the message (V-D).
      if (--owned.copies_left == 0) continue;
    }
    if (out != in) *out = std::move(*in);
    ++out;
  }
  if (out != in) produced.erase(std::move(in, produced.end(), out),
                                produced.end());
  auto& hp = collector_->hot_path();
  if (visited != 0) hp.pickup_entries_scanned += visited;
  if (probes != 0) hp.filter_probes += probes;
}

void BsubProtocol::on_end(util::Time /*now*/) {
  // Fold per-store hot-path accounting into the run's metrics so benches
  // and differential tests can read it off RunResults.
  auto& hp = collector_->hot_path();
  for (const auto& cs : carrier_) {
    if (cs == nullptr) continue;  // never carried: zero stats by definition
    const sim::MessageStore::Stats& s = cs->carried.stats();
    hp.purge_scans_skipped += s.purges_skipped;
    hp.purge_scans_run += s.purges_scanned;
    hp.payload_copies_avoided += s.shared_adds;
    hp.payload_copies_made += s.copied_adds;
  }
}

}  // namespace bsub::core
