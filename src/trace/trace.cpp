#include "trace/trace.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <tuple>
#include <utility>

namespace bsub::trace {

ContactTrace::ContactTrace(std::size_t node_count,
                           std::vector<Contact> contacts, std::string name)
    : name_(std::move(name)), node_count_(node_count),
      contacts_(std::move(contacts)) {
  std::erase_if(contacts_, [node_count](const Contact& c) {
    return c.a == c.b || c.end <= c.start || c.a >= node_count ||
           c.b >= node_count;
  });
  for (Contact& c : contacts_) {
    if (c.a > c.b) std::swap(c.a, c.b);
  }
  std::sort(contacts_.begin(), contacts_.end(),
            [](const Contact& x, const Contact& y) {
              return std::tie(x.start, x.end, x.a, x.b) <
                     std::tie(y.start, y.end, y.a, y.b);
            });
}

util::Time ContactTrace::start_time() const {
  return contacts_.empty() ? 0 : contacts_.front().start;
}

util::Time ContactTrace::end_time() const {
  util::Time end = 0;
  for (const Contact& c : contacts_) end = std::max(end, c.end);
  return end;
}

TraceStats ContactTrace::stats() const {
  TraceStats s;
  s.node_count = node_count_;
  s.contact_count = contacts_.size();
  if (contacts_.empty()) return s;
  s.duration = end_time() - start_time();
  double total_dur = 0.0;
  for (const Contact& c : contacts_) total_dur += util::to_seconds(c.duration());
  s.mean_contact_duration_s = total_dur / static_cast<double>(contacts_.size());
  s.mean_contacts_per_node =
      2.0 * static_cast<double>(contacts_.size()) /
      static_cast<double>(node_count_);
  auto deg = degrees();
  double deg_sum = 0.0;
  for (std::size_t d : deg) deg_sum += static_cast<double>(d);
  s.mean_degree = deg_sum / static_cast<double>(node_count_);
  return s;
}

std::vector<std::size_t> ContactTrace::degrees() const {
  return degrees_in_window(start_time(), end_time() + 1);
}

std::vector<std::size_t> ContactTrace::degrees_in_window(
    util::Time from, util::Time to) const {
  // Distinct (min, max) peer pairs met in the window, packed into one word
  // each and deduplicated by sort + unique; each surviving pair adds one
  // to both endpoints' degree. Contacts are sorted by start, so the window
  // is one contiguous run of them.
  const auto first = std::partition_point(
      contacts_.begin(), contacts_.end(),
      [from](const Contact& c) { return c.start < from; });
  const auto last = std::partition_point(
      first, contacts_.end(), [to](const Contact& c) { return c.start < to; });
  std::vector<std::uint64_t> pairs;
  pairs.reserve(static_cast<std::size_t>(last - first));
  for (auto it = first; it != last; ++it) {
    const auto [lo, hi] = std::minmax(it->a, it->b);
    pairs.push_back(static_cast<std::uint64_t>(lo) << 32 | hi);
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  std::vector<std::size_t> deg(node_count_, 0);
  for (const std::uint64_t p : pairs) {
    ++deg[p >> 32];
    ++deg[p & 0xffffffffu];
  }
  return deg;
}

std::vector<std::size_t> ContactTrace::contact_counts() const {
  std::vector<std::size_t> counts(node_count_, 0);
  for (const Contact& c : contacts_) {
    ++counts[c.a];
    ++counts[c.b];
  }
  return counts;
}

}  // namespace bsub::trace
