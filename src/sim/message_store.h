// Per-node message buffer shared by all protocols.
//
// A sorted flat vector of (id, shared payload) entries: iteration — and
// therefore transmission order under bandwidth pressure — is deterministic
// (id == creation order), and lookups are binary searches over a contiguous
// array. Payloads are immutable and refcounted, so copying a message between
// nodes (pickup, custody transfer, spraying) shares one body instead of
// deep-copying it per holder.
//
// TTL purging rides the ExpiryIndex fast path: `purge_expired` is O(1) when
// nothing registered has expired. Otherwise it pops the due (expiry, id)
// pairs and erases exactly those ids that are still buffered and expired —
// one binary search per due id and one compaction of the tail behind the
// first dropped entry; no other payload is dereferenced. Due ids that left
// earlier (stale heap entries) are skipped. `purge_expired_scan` retains the
// naive full-scan reference for differential testing; both report how many
// messages were dropped.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/expiry_index.h"
#include "util/time.h"
#include "workload/message.h"

namespace bsub::sim {

/// Shared immutable message payload.
using MessageRef = std::shared_ptr<const workload::Message>;

/// Wraps a workload-owned message in a non-owning ref. The workload's
/// message table is materialized up front and outlives every run, so
/// protocols can share its entries without a copy or a refcount allocation.
inline MessageRef borrow_message(const workload::Message& msg) {
  return MessageRef(MessageRef{}, &msg);
}

/// Pops every id `expiry` holds due at `now` and erases from `entries` — a
/// vector sorted by a unique `id` field, each entry carrying its payload in
/// `msg` — exactly the due ids still present whose payload has expired.
/// Stale due ids (the entry left earlier) are skipped. Only the due ids are
/// looked up and only their payloads dereferenced; the kept entries behind
/// the first drop are moved down once. Returns how many entries it erased.
template <class Entry>
std::size_t erase_due(std::vector<Entry>& entries, ExpiryIndex& expiry,
                      util::Time now) {
  thread_local std::vector<workload::MessageId> due;
  due.clear();
  expiry.pop_due(now, [](workload::MessageId id) { due.push_back(id); });
  std::sort(due.begin(), due.end());
  const auto end = entries.end();
  auto in = entries.begin();  // first entry not yet kept or dropped
  auto out = in;              // where the next kept entry belongs
  bool dropped_any = false;
  for (const workload::MessageId id : due) {
    const auto pos = std::lower_bound(
        in, end, id, [](const Entry& e, workload::MessageId v) {
          return e.id < v;
        });
    if (pos == end) break;
    if (pos->id != id || !pos->msg->expired_at(now)) continue;
    out = dropped_any ? std::move(in, pos, out) : pos;
    dropped_any = true;
    in = pos + 1;
  }
  if (!dropped_any) return 0;
  out = std::move(in, end, out);
  const std::size_t dropped = static_cast<std::size_t>(end - out);
  entries.erase(out, end);
  return dropped;
}

class MessageStore {
 public:
  struct Entry {
    workload::MessageId id;
    MessageRef msg;
  };

  /// Hot-path accounting, aggregated into metrics::HotPathStats at run end.
  struct Stats {
    std::uint64_t shared_adds = 0;    ///< payload copies avoided
    std::uint64_t copied_adds = 0;    ///< payloads deep-copied on admission
    std::uint64_t purges_skipped = 0; ///< O(1) nothing-due purge calls
    std::uint64_t purges_scanned = 0; ///< purge calls that did real work
  };

  /// Adds a copy; returns false if the id is already buffered.
  bool add(const workload::Message& msg) {
    return insert(msg.id, std::make_shared<const workload::Message>(msg),
                  /*shared=*/false);
  }

  /// Adds a shared payload (no body copy); returns false on duplicate id.
  bool add(MessageRef msg) {
    const workload::MessageId id = msg->id;
    return insert(id, std::move(msg), /*shared=*/true);
  }

  bool contains(workload::MessageId id) const {
    auto it = lower_bound(id);
    return it != entries_.end() && it->id == id;
  }

  bool remove(workload::MessageId id) {
    auto it = lower_bound(id);
    if (it == entries_.end() || it->id != id) return false;
    entries_.erase(it);  // the expiry-heap entry goes stale; skipped lazily
    return true;
  }

  /// Pointer to the buffered message, or nullptr if absent.
  const workload::Message* find(workload::MessageId id) const {
    auto it = lower_bound(id);
    return it == entries_.end() || it->id != id ? nullptr : it->msg.get();
  }

  /// Shared handle to the buffered payload (empty if absent); handing this
  /// to another store's add() moves custody without copying the body.
  MessageRef find_ref(workload::MessageId id) const {
    auto it = lower_bound(id);
    return it == entries_.end() || it->id != id ? MessageRef{} : it->msg;
  }

  /// Drops messages whose TTL has elapsed at `now`; returns how many.
  /// O(1) when the expiry index proves nothing expired since the last call;
  /// otherwise looks up only the ids the index reports due (erase_due).
  std::size_t purge_expired(util::Time now) {
    if (!expiry_.due(now)) {
      ++stats_.purges_skipped;
      return 0;
    }
    ++stats_.purges_scanned;
    return erase_due(entries_, expiry_, now);
  }

  /// Naive full-scan purge — the retained reference the differential test
  /// runs against the fast path. Identical observable semantics.
  std::size_t purge_expired_scan(util::Time now) {
    ++stats_.purges_scanned;
    const std::size_t before = entries_.size();
    std::erase_if(entries_,
                  [now](const Entry& e) { return e.msg->expired_at(now); });
    return before - entries_.size();
  }

  /// Earliest (possibly stale) registered expiry; kTimeMax when empty.
  util::Time next_expiry() const { return expiry_.next_due(); }

  const Stats& stats() const { return stats_; }

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  void clear() {
    entries_.clear();
    expiry_.clear();
  }

  /// Iteration in id (creation) order; yields Entry{id, msg}.
  auto begin() const { return entries_.begin(); }
  auto end() const { return entries_.end(); }

 private:
  std::vector<Entry>::const_iterator lower_bound(workload::MessageId id) const {
    return std::lower_bound(
        entries_.begin(), entries_.end(), id,
        [](const Entry& e, workload::MessageId v) { return e.id < v; });
  }
  std::vector<Entry>::iterator lower_bound(workload::MessageId id) {
    return std::lower_bound(
        entries_.begin(), entries_.end(), id,
        [](const Entry& e, workload::MessageId v) { return e.id < v; });
  }

  bool insert(workload::MessageId id, MessageRef ref, bool shared) {
    auto it = lower_bound(id);
    if (it != entries_.end() && it->id == id) return false;
    expiry_.add(ref->expiry(), id);
    entries_.insert(it, Entry{id, std::move(ref)});
    ++(shared ? stats_.shared_adds : stats_.copied_adds);
    return true;
  }

  std::vector<Entry> entries_;
  ExpiryIndex expiry_;
  Stats stats_;
};

}  // namespace bsub::sim
