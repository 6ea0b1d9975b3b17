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
// The replay is serial: events run one at a time in the merged trace
// order. Sharding it across cores measured no faster end to end
// (EXPERIMENTS.md, "Engine threading retirement"); the Simulator is the
// threaded driver. Delivery records go to per-node logs read back
// node-major, the canonical order the fleet's loopback replay reports too.
#pragma once

#include <span>

#include "core/broker_allocation.h"
#include "engine/network.h"
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

class TraceRunner {
 public:
  /// `config` is the whole protocol: the node constants, and the election
  /// knobs through core::election_config. A config the engine cannot run
  /// (adaptive_df) is refused with util::ConfigError when run() builds
  /// the nodes.
  explicit TraceRunner(core::BsubConfig config,
                       double bandwidth_bytes_per_second =
                           sim::kDefaultBandwidthBytesPerSecond)
      : config_(config), bandwidth_(bandwidth_bytes_per_second) {}

  /// Runs a streamed scenario; bit-identical to running the stream's
  /// materialization. Peak memory is O(node state + one scheduling
  /// window). Consumes the stream from its current position.
  TraceRunResults run(trace::ContactStream& contacts,
                      const workload::Workload& workload);

  /// Materialized-scenario convenience: adapts the trace to a stream.
  TraceRunResults run(const trace::ContactTrace& trace,
                      const workload::Workload& workload) {
    trace::MaterializedStream stream(trace);
    return run(stream, workload);
  }

 private:
  core::BsubConfig config_;
  double bandwidth_;
};

}  // namespace bsub::engine
