// Timing decorators for the benchmark's traced runs.
//
// They wrap the program's public seams — trace::ContactStream and
// sim::Protocol — so per-layer time is measured from outside the program,
// around the calls into each layer; nothing in src/ is instrumented. The
// untraced runs never construct them, and the benchmark asserts that a
// traced run computes exactly the same semantic results as an untraced one.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/protocol.h"
#include "trace/contact_stream.h"

namespace bsub::perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Times every next() of the wrapped stream. The simulator pulls contacts
/// on its calling thread only, so plain members suffice.
class TimedStream final : public trace::ContactStream {
 public:
  explicit TimedStream(trace::ContactStream& inner) : inner_(inner) {}

  std::size_t node_count() const override { return inner_.node_count(); }

  bool next(trace::Contact& out) override {
    const Clock::time_point t0 = Clock::now();
    const bool got = inner_.next(out);
    next_s_ += seconds_between(t0, Clock::now());
    if (got) ++contacts_;
    return got;
  }

  void reset() override { inner_.reset(); }
  std::optional<std::uint64_t> size_hint() const override {
    return inner_.size_hint();
  }
  const std::string& name() const override { return inner_.name(); }

  double next_seconds() const { return next_s_; }
  std::uint64_t contacts() const { return contacts_; }

 private:
  trace::ContactStream& inner_;
  double next_s_ = 0.0;
  std::uint64_t contacts_ = 0;
};

/// Times every call into the wrapped protocol. The simulator may run
/// node-disjoint contacts on several pool workers at once, so each thread
/// accumulates into its own slot (registered once under a mutex, then
/// written without synchronization); readers merge the slots after the run
/// has returned, when every worker is idle at the executor's barrier.
class TimedProtocol final : public sim::Protocol {
 public:
  struct ThreadSlot {
    std::thread::id thread;
    double contact_s = 0.0;
    double message_s = 0.0;
    std::uint64_t link_bytes = 0;
    std::vector<std::uint32_t> contact_ns;  ///< one sample per on_contact
  };

  explicit TimedProtocol(sim::Protocol& inner)
      : inner_(inner),
        id_(next_id_.fetch_add(1, std::memory_order_relaxed)),
        caller_(std::this_thread::get_id()) {}

  using sim::Protocol::on_start;
  void on_start(const sim::ScenarioInfo& scenario,
                const workload::Workload& workload,
                metrics::Collector& collector) override {
    const Clock::time_point t0 = Clock::now();
    inner_.on_start(scenario, workload, collector);
    start_s_ += seconds_between(t0, Clock::now());
  }

  void on_message_created(const workload::Message& msg,
                          util::Time now) override {
    ThreadSlot& slot = this_thread_slot();
    const Clock::time_point t0 = Clock::now();
    inner_.on_message_created(msg, now);
    slot.message_s += seconds_between(t0, Clock::now());
  }

  void on_contact(trace::NodeId a, trace::NodeId b, util::Time now,
                  util::Time duration, sim::Link& link) override {
    ThreadSlot& slot = this_thread_slot();
    const Clock::time_point t0 = Clock::now();
    inner_.on_contact(a, b, now, duration, link);
    const Clock::duration took = Clock::now() - t0;
    slot.contact_s += std::chrono::duration<double>(took).count();
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(took).count();
    slot.contact_ns.push_back(static_cast<std::uint32_t>(
        std::min<std::int64_t>(ns, UINT32_MAX)));
    slot.link_bytes += link.used_bytes();
  }

  void on_end(util::Time now) override {
    const Clock::time_point t0 = Clock::now();
    inner_.on_end(now);
    end_s_ += seconds_between(t0, Clock::now());
  }

  /// Forwarded so a parallel-safe protocol keeps its multi-threaded path.
  bool parallel_contacts_safe() const override {
    return inner_.parallel_contacts_safe();
  }

  const char* name() const override { return inner_.name(); }

  double start_seconds() const { return start_s_; }
  double end_seconds() const { return end_s_; }
  /// The thread that constructed the decorator (the simulator's caller).
  std::thread::id caller() const { return caller_; }
  /// Per-thread slots; read only after the run returned.
  const std::vector<std::unique_ptr<ThreadSlot>>& slots() const {
    return slots_;
  }

 private:
  ThreadSlot& this_thread_slot() {
    struct Cache {
      std::uint64_t owner = 0;
      ThreadSlot* slot = nullptr;
    };
    thread_local Cache cache;
    if (cache.owner != id_) {
      std::lock_guard<std::mutex> lock(slots_mu_);
      slots_.push_back(std::make_unique<ThreadSlot>());
      slots_.back()->thread = std::this_thread::get_id();
      cache = Cache{id_, slots_.back().get()};
    }
    return *cache.slot;
  }

  static inline std::atomic<std::uint64_t> next_id_{1};

  sim::Protocol& inner_;
  const std::uint64_t id_;  ///< never reused, unlike the object's address
  const std::thread::id caller_;
  double start_s_ = 0.0;
  double end_s_ = 0.0;
  std::mutex slots_mu_;
  std::vector<std::unique_ptr<ThreadSlot>> slots_;
};

}  // namespace bsub::perfbench
