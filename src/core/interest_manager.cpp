#include "core/interest_manager.h"

#include <algorithm>
#include <cassert>

namespace bsub::core {

InterestManager::InterestManager(const workload::KeySet& keys,
                                 std::size_t node_count,
                                 bloom::BloomParams params,
                                 double initial_counter, double df_per_minute,
                                 bool eager_state)
    : keys_(&keys), params_(params), initial_counter_(initial_counter),
      df_per_minute_(df_per_minute), eager_(eager_state),
      slots_(node_count), empty_relay_(params, initial_counter) {
  assert(df_per_minute >= 0.0);
  if (eager_) {
    // Reference layout: one RelayState per node, built up front, decay
    // clocks at 0 (the historical behavior).
    for (std::size_t n = 0; n < node_count; ++n) {
      slots_[n].state = pool_.acquire([&] {
        return RelayState{bloom::Tcbf(params_, initial_counter_), {}, 0};
      });
    }
  }
}

InterestManager::RelayState& InterestManager::state_for(trace::NodeId node,
                                                        util::Time now) {
  NodeSlot& slot = slots_[node];
  if (slot.state == util::kNoPoolHandle) {
    slot.state = pool_.acquire([&] {
      return RelayState{bloom::Tcbf(params_, initial_counter_), {}, now};
    });
    // Recycled states keep their (cleared) buffers; only the clock needs
    // re-arming. Starting it at `now` equals an eager empty state decayed
    // to `now` — decaying an empty filter is a no-op.
    pool_[slot.state].last_decay = now;
  }
  return pool_[slot.state];
}

bloom::Tcbf& InterestManager::relay(trace::NodeId node, util::Time now) {
  RelayState& s = state_for(node, now);
  if (now > s.last_decay) {
    const double df_override = slots_[node].df_override;
    const double df = df_override >= 0.0 ? df_override : df_per_minute_;
    if (df > 0.0) {
      const double amount = df * util::to_minutes(now - s.last_decay);
      s.filter.decay(amount);
      for (double& v : s.shadow) {
        if (v > 0.0) {
          v -= amount;
          if (v <= 0.0) v = 0.0;  // drained: the key reads absent
        }
      }
    }
    s.last_decay = now;
  }
  return s.filter;
}

std::vector<double>& InterestManager::sized_shadow(trace::NodeId node) {
  std::vector<double>& shadow = pool_[slots_[node].state].shadow;
  if (shadow.empty()) shadow.assign(keys_->size(), 0.0);
  return shadow;
}

bloom::Tcbf InterestManager::make_genuine(
    std::span<const workload::KeyId> keys) const {
  bloom::Tcbf g(params_, initial_counter_);
  for (workload::KeyId k : keys) g.insert(keys_->hash(k));
  return g;
}

bloom::BloomFilter InterestManager::make_report(
    std::span<const workload::KeyId> keys) const {
  bloom::BloomFilter bf(params_);
  for (workload::KeyId k : keys) bf.insert(keys_->hash(k));
  return bf;
}

void InterestManager::absorb_genuine(trace::NodeId broker,
                                     const bloom::Tcbf& genuine,
                                     std::span<const workload::KeyId> keys,
                                     util::Time now) {
  relay(broker, now).a_merge(genuine);
  // A-merge adds the genuine counters (all = C) onto each key's bits; each
  // key's minimum counter therefore grows by exactly C (from 0 if absent).
  std::vector<double>& shadow = sized_shadow(broker);
  for (workload::KeyId k : keys) shadow[k] += genuine.initial_counter();
}

void InterestManager::merge_relay_from(trace::NodeId dst,
                                       const bloom::Tcbf& src_filter,
                                       std::span<const double> src_shadow,
                                       BrokerMergeMode mode, util::Time now) {
  bloom::Tcbf& filter = relay(dst, now);
  if (mode == BrokerMergeMode::kMMerge) {
    filter.m_merge(src_filter);
  } else {
    filter.a_merge(src_filter);
  }
  if (src_shadow.empty()) return;  // the source never absorbed a key
  // Absent keys are 0.0 on both sides, and max(0, v) == 0 + v == v, so the
  // per-key rules below are exactly insert-or-combine.
  std::vector<double>& shadow = sized_shadow(dst);
  for (std::size_t k = 0; k < src_shadow.size(); ++k) {
    shadow[k] = mode == BrokerMergeMode::kMMerge
                    ? std::max(shadow[k], src_shadow[k])
                    : shadow[k] + src_shadow[k];
  }
}

bool InterestManager::genuinely_contains(trace::NodeId node,
                                         workload::KeyId key, util::Time now) {
  // An unmaterialized relay never absorbed anything: answer without
  // materializing (the eager equivalent — decaying an empty state, then
  // probing an empty shadow — observes the same `false`).
  if (slots_[node].state == util::kNoPoolHandle) return false;
  relay(node, now);  // bring the shadow up to date
  const std::vector<double>& shadow = pool_[slots_[node].state].shadow;
  return !shadow.empty() && shadow[key] > 0.0;
}

void InterestManager::clear_relay(trace::NodeId node, util::Time now) {
  NodeSlot& slot = slots_[node];
  if (slot.state == util::kNoPoolHandle) return;  // nothing to reset
  if (eager_) {
    // Reference layout: reset in place (the historical behavior).
    RelayState& s = pool_[slot.state];
    s.filter.clear();
    s.shadow.clear();
    s.last_decay = now;
    return;
  }
  // Pooled: return the state for reuse; the DF override lives in the slot
  // and deliberately survives the reset (clear_relay resets the *filter*,
  // not the node's tuning).
  pool_.release(slot.state, [](RelayState& s) {
    s.filter.clear();
    s.shadow.clear();
    s.last_decay = 0;
  });
  slot.state = util::kNoPoolHandle;
}

void InterestManager::set_node_df(trace::NodeId node, double df_per_minute) {
  slots_[node].df_override = df_per_minute;
}

double InterestManager::node_df(trace::NodeId node) const {
  const double df_override = slots_[node].df_override;
  return df_override >= 0.0 ? df_override : df_per_minute_;
}

}  // namespace bsub::core
