// Relay- and genuine-filter management (paper section V-C).
//
// A consumer's interests live in a *genuine filter* (a fresh TCBF whose
// counters all equal the initial value C — built on demand when reporting).
// A broker accumulates other users' interests in its *relay filter*, which
// decays continuously at the DF; decay is applied lazily (per-filter
// timestamps) so idle nodes cost nothing.
// Ground truth: alongside every relay filter the manager keeps a *shadow*
// — the remaining counter of every key the filter genuinely absorbed,
// mirroring the TCBF's decay/merge arithmetic. It is a dense array indexed
// by the run's interned workload::KeyId (0.0 = absent), empty until the
// relay first absorbs or merges a key. The shadow is measurement
// instrumentation only (it costs no protocol bytes): comparing a TCBF hit
// against the shadow identifies relay-filter false positives, which feed
// the paper's false-delivery metric (Fig. 9(d)).
//
// Storage is lazy and pooled: B-SUB's own premise is that only brokers
// carry relay filters, so a node costs 16 bytes of slot (pool handle + DF
// override) until its relay is first touched. Relay state (a full TCBF +
// shadow array) materializes from an ObjectPool on first use and returns to
// the pool on clear_relay — a re-promoted broker reuses the heap capacity a
// demoted one left behind. `eager_state` retains the historical
// one-RelayState-per-node layout as the differential-test reference; the
// two modes are bit-identical in every protocol-observable way (an
// unmaterialized relay behaves exactly like an eagerly-built empty one:
// decay of an empty filter is a no-op, so the decay-clock origin is
// unobservable until the first insert, which materializes).
#pragma once

#include <span>
#include <vector>

#include "bloom/bloom_filter.h"
#include "bloom/tcbf.h"
#include "core/config.h"
#include "trace/contact.h"
#include "util/pool.h"
#include "util/time.h"
#include "workload/keys.h"

namespace bsub::core {

class InterestManager {
 public:
  /// `keys` is the run's key universe (it must outlive the manager): every
  /// KeyId below indexes it. `eager_state` pre-materializes every node's
  /// relay state up front (the historical layout, kept as the
  /// differential-test reference).
  InterestManager(const workload::KeySet& keys, std::size_t node_count,
                  bloom::BloomParams params, double initial_counter,
                  double df_per_minute, bool eager_state = false);

  /// The node's relay filter, decayed up to `now`. The per-node DF override
  /// (if set) takes precedence over the global DF. Materializes the node's
  /// relay state on first call.
  bloom::Tcbf& relay(trace::NodeId node, util::Time now);

  /// Read-only peek without advancing the decay clock (for inspection).
  /// Unmaterialized nodes see a shared empty filter.
  const bloom::Tcbf& relay_snapshot(trace::NodeId node) const {
    const NodeSlot& s = slots_[node];
    return s.state == util::kNoPoolHandle ? empty_relay_ : pool_[s.state].filter;
  }

  /// Builds the genuine filter for a set of interest keys (section V-A's
  /// multi-key extension).
  bloom::Tcbf make_genuine(std::span<const workload::KeyId> keys) const;

  /// Builds the counter-less interest report (a plain BF) for a key set.
  bloom::BloomFilter make_report(std::span<const workload::KeyId> keys) const;

  /// A-merges a consumer's genuine filter into a broker's relay filter
  /// (reinforcement happens through repeated meetings). `keys` are the
  /// interests the genuine filter represents; each enters the shadow.
  void absorb_genuine(trace::NodeId broker, const bloom::Tcbf& genuine,
                      std::span<const workload::KeyId> keys, util::Time now);

  /// Merges another broker's relay state (filter + shadow counters, as
  /// returned by shadow_snapshot) into `dst`'s, with M-merge or A-merge
  /// semantics. `dst` is decayed to `now` first.
  void merge_relay_from(trace::NodeId dst, const bloom::Tcbf& src_filter,
                        std::span<const double> src_shadow,
                        BrokerMergeMode mode, util::Time now);

  /// Ground truth: does `node`'s relay filter genuinely hold `key` at `now`?
  /// A TCBF hit without this is a relay false positive. Never materializes:
  /// an unmaterialized relay holds nothing.
  bool genuinely_contains(trace::NodeId node, workload::KeyId key,
                          util::Time now);

  /// Shadow counters indexed by KeyId (decayed to whenever relay() was last
  /// called). Empty when the relay never absorbed or merged a key.
  std::span<const double> shadow_snapshot(trace::NodeId node) const {
    const NodeSlot& s = slots_[node];
    if (s.state == util::kNoPoolHandle) return {};
    return pool_[s.state].shadow;
  }

  /// Resets a node's relay filter (e.g. on demotion from brokership). In
  /// pooled mode the state returns to the free pool; the node's DF override
  /// survives the reset in both modes.
  void clear_relay(trace::NodeId node, util::Time now);

  /// Per-node DF override in counter units per minute (adaptive DF); pass a
  /// negative value to clear the override.
  void set_node_df(trace::NodeId node, double df_per_minute);
  double node_df(trace::NodeId node) const;

  double global_df() const { return df_per_minute_; }
  const bloom::BloomParams& params() const { return params_; }

  /// Observability for tests and memory accounting.
  bool relay_materialized(trace::NodeId node) const {
    return slots_[node].state != util::kNoPoolHandle;
  }
  std::size_t materialized_relays() const {
    return pool_.size() - pool_.free_count();
  }
  std::size_t pooled_relays() const { return pool_.free_count(); }
  std::uint64_t relays_recycled() const { return pool_.recycled(); }

 private:
  struct RelayState {
    bloom::Tcbf filter;
    /// Remaining counter per KeyId; empty or keys.size() long.
    std::vector<double> shadow;
    util::Time last_decay = 0;
  };
  /// What every node pays, participant or not: a pool handle + DF override.
  struct NodeSlot {
    std::uint32_t state = util::kNoPoolHandle;
    double df_override = -1.0;
  };

  /// Materializes (or fetches) the node's relay state; a fresh/recycled
  /// state starts its decay clock at `now`, which is indistinguishable from
  /// an eager empty state decayed to `now`.
  RelayState& state_for(trace::NodeId node, util::Time now);
  /// A materialized node's shadow, sized to the key universe on first use.
  std::vector<double>& sized_shadow(trace::NodeId node);

  const workload::KeySet* keys_;

  bloom::BloomParams params_;
  double initial_counter_;
  double df_per_minute_;
  bool eager_;
  std::vector<NodeSlot> slots_;
  util::ObjectPool<RelayState> pool_;
  /// Shared snapshot for unmaterialized nodes.
  bloom::Tcbf empty_relay_;
};

}  // namespace bsub::core
