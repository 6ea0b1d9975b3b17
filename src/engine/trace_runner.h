// Replays a contact trace + workload through the live frame-driven engine.
//
// This is the bridge between the two substrates: the same scenario that
// drives the strategy-object simulator (sim::Simulator + core::BsubProtocol)
// can be pushed through real BsubNodes exchanging encoded frames. Agreement
// between the two is a strong end-to-end correctness check — every filter
// crosses a codec boundary here.
//
// Differences vs the simulator model (kept deliberately):
//   - roles come from the same BrokerElection rules, evaluated inline;
//   - all transfers are real frames charged at wire size (the simulator
//     charges analytic sizes);
//   - messages carry real bodies of the workload's size.
//
// Like the simulator, the runner can shard one trace across cores through
// the windowed conflict-batch executor: a contact only touches its two
// endpoint BsubNodes (and their election state), so node-disjoint contacts
// commute. Delivery records go to per-node logs reduced node-major, and
// frame tallies are relaxed atomics, so serial and parallel runs return
// byte-identical TraceRunResults.
#pragma once

#include <span>
#include <string_view>

#include "core/broker_allocation.h"
#include "engine/network.h"
#include "metrics/collector.h"
#include "sim/parallel_executor.h"
#include "trace/contact_stream.h"
#include "trace/trace.h"
#include "workload/workload.h"

namespace bsub::engine {

struct TraceRunResults {
  std::uint64_t deliveries = 0;          ///< unique (message, consumer)
  std::uint64_t expected_deliveries = 0;
  double delivery_ratio = 0.0;
  double mean_delay_minutes = 0.0;
  std::uint64_t contacts_processed = 0;
  std::uint64_t frames_delivered = 0;
  std::uint64_t frames_dropped = 0;
  std::uint64_t bytes_used = 0;
};

/// The engine form of a workload message: same id, key, creation instant
/// and TTL, with a body of `size_bytes` bytes of 0x5A. Every substrate that
/// replays a workload builds its messages here, so bodies — and with them
/// frame sizes and byte budgets — agree bit for bit.
ContentMessage content_message(const workload::Workload& workload,
                               const workload::Message& m);

/// Fills the delivery fields of `results` (deliveries, expected_deliveries,
/// delivery_ratio, mean_delay_minutes) from a run's delivery log. Pass the
/// canonical node-major log: the mean delay is a float sum in log order.
void summarize_deliveries(std::span<const DeliveryRecord> delivered,
                          const workload::Workload& workload,
                          TraceRunResults& results);

/// Execution knobs; semantics are identical for every setting (see the
/// determinism contract above).
struct TraceRunnerOptions {
  /// 0 = util::default_thread_count() (honors BSUB_THREADS), 1 = serial.
  std::size_t threads = 0;
  std::size_t window_events = 4096;
  std::size_t min_batch_fanout = 4;
};

class TraceRunner {
 public:
  TraceRunner(NodeConfig node_config, core::BrokerElection::Config election,
              double bandwidth_bytes_per_second =
                  sim::kDefaultBandwidthBytesPerSecond,
              TraceRunnerOptions options = {})
      : node_config_(node_config), election_config_(election),
        bandwidth_(bandwidth_bytes_per_second), options_(options) {}

  /// Builds a runner from a B-SUB protocol spec (see
  /// core::bsub_config_from_spec): the shared constants map onto
  /// NodeConfig, bl/bu/window_ms onto the election config. Throws
  /// util::ConfigError for a non-B-SUB spec, a bad parameter, or
  /// adaptive=1 (the frame engine has no online DF estimator — failing
  /// loudly beats silently running a different protocol than asked).
  static TraceRunner from_protocol_spec(
      std::string_view protocol_spec,
      double bandwidth_bytes_per_second = sim::kDefaultBandwidthBytesPerSecond,
      TraceRunnerOptions options = {});

  /// Runs a streamed scenario; deterministic across thread counts and
  /// bit-identical to running the stream's materialization. Peak memory is
  /// O(node state + one scheduling window). Consumes the stream from its
  /// current position.
  TraceRunResults run(trace::ContactStream& contacts,
                      const workload::Workload& workload);

  /// Materialized-scenario convenience: adapts the trace to a stream.
  TraceRunResults run(const trace::ContactTrace& trace,
                      const workload::Workload& workload) {
    trace::MaterializedStream stream(trace);
    return run(stream, workload);
  }

  /// Execution-shape stats of the most recent run().
  const sim::ParallelRunStats& last_run_stats() const {
    return last_run_stats_;
  }

 private:
  NodeConfig node_config_;
  core::BrokerElection::Config election_config_;
  double bandwidth_;
  TraceRunnerOptions options_;
  sim::ParallelRunStats last_run_stats_;
};

}  // namespace bsub::engine
