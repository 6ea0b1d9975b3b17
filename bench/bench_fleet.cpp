// Fleet runtime benchmark: thousands of live B-SUB nodes per reactor
// thread, each point in its own process so peak RSS is per-point.
//
// Two claims under test:
//
//   1. Correct scale-out: FleetRuntime::run_loopback, the repo's one live
//      loopback replay, is bit-identical at fleet scale to
//      engine::TraceRunner (the engine harness) — the same protocol ran,
//      just through NodeRuntime sessions over real reactors.
//   2. The fleet I/O plane earns its keep: batched sendmmsg/recvmmsg over
//      shard sockets must beat the naive scale-out (one sendto/recvfrom
//      syscall per datagram + one socket per node) by >= 2x contacts/s at
//      the 10k-node point. Every reactor uses poll(2); with shard sockets
//      each one watches just its socket and a wake pipe.
//
// Full points: a 10k-node loopback differential, the I/O comparison
// (A single-syscall + node sockets, C batched + shard sockets) at 10k
// nodes, and a dense 10k-node C-style point for throughput +
// delivery-latency percentiles. A and C are short (a fraction of a
// second), so each runs kCompareRepeats times, as alternating pairs (A C,
// C A, ...) so host drift hits both alike; every sample is printed and
// written. `--smoke` runs the CI subset: a 256-node loopback differential
// and a 64-node real-UDP run, same gates.
//
// Gates (exit 1 on violation):
//   1. every loopback point is bit-identical to the engine harness;
//   2. median C >= 2x median A contacts/s (skipped where sendmmsg is
//      missing);
//   3. throughput floors: shard-socket points >= 500 contacts/s, the
//      per-node-socket baselines >= 100 (coarse pathology catches, 20-90x
//      under observed single-core rates);
//   4. every issued contact completes, with <= 1% hard timeouts (3 and 4
//      hold for every sample).
#include "fleet_common.h"

#include <cstring>
#include <string>
#include <vector>

#include "experiment_common.h"
#include "fork_util.h"
#include "resource_stats.h"
#include "util/stats.h"

namespace {

using namespace bsub;
using namespace bsub::bench;

constexpr double kSpeedupFloor = 2.0;
constexpr std::size_t kCompareRepeats = 5;  // samples of each of A and C
constexpr double kShardThroughputFloor = 500.0;    // contacts/s
constexpr double kPerNodeThroughputFloor = 100.0;  // contacts/s
constexpr double kTimeoutCeiling = 0.01;           // of issued contacts

struct PointSpec {
  const char* label;
  FleetPoint point;
  bool udp = false;
  bool batched = false;
  bool per_node_sockets = false;
  std::uint16_t base_port = 0;
  bool differential = false;  ///< loopback only
};

/// Flat POD subset of FleetRunResults plus per-point RSS: what crosses the
/// fork pipe as raw bytes.
struct PointResult {
  engine::TraceRunResults protocol{};
  metrics::TransportStats transport{};
  std::size_t reactor_threads = 0;
  double wall_seconds = 0.0;
  double contacts_per_second = 0.0;
  double deliveries_per_second = 0.0;
  double p50_delivery_latency_ms = 0.0;
  double p99_delivery_latency_ms = 0.0;
  std::uint64_t contacts_timed_out = 0;
  std::uint64_t send_syscalls = 0;
  std::uint64_t recv_syscalls = 0;
  std::uint64_t datagrams_out = 0;
  std::uint64_t sendq_drops = 0;
  std::uint64_t unroutable_drops = 0;
  std::uint64_t peak_rss_bytes = 0;
  bool differential_ok = true;

  void take(const net::FleetRunResults& r) {
    protocol = r.protocol;
    transport = r.transport;
    reactor_threads = r.reactor_threads;
    wall_seconds = r.wall_seconds;
    contacts_per_second = r.contacts_per_second;
    deliveries_per_second = r.deliveries_per_second;
    p50_delivery_latency_ms = r.p50_delivery_latency_ms;
    p99_delivery_latency_ms = r.p99_delivery_latency_ms;
    contacts_timed_out = r.contacts_timed_out;
    send_syscalls = r.send_syscalls;
    recv_syscalls = r.recv_syscalls;
    datagrams_out = r.datagrams_out;
    sendq_drops = r.sendq_drops;
    unroutable_drops = r.unroutable_drops;
  }
};

std::vector<PointSpec> full_points() {
  constexpr FleetPoint kCompare{10000, 8000, 100};
  constexpr FleetPoint kDense{10000, 80000, 500};
  return {
      {"loopback-10k", kDense, false, false, false, 0,
       /*differential=*/true},
      {"A-single-node", kCompare, true, false, true, 21000},
      {"C-batched-shard", kCompare, true, true, false, 47600},
      {"udp-10k-dense", kDense, true, true, false, 47700},
  };
}

std::vector<PointSpec> smoke_points() {
  return {
      {"loopback-256", {256, 2048, 64}, false, false, false, 0,
       /*differential=*/true},
      {"udp-64", {64, 1000, 50}, true, net::fleet_udp_batched_available(),
       false, 47800},
  };
}

bool is_label(const PointSpec& spec, const char* prefix) {
  return std::strncmp(spec.label, prefix, std::strlen(prefix)) == 0;
}

/// Run order: every point once in list order, except that the A/C
/// comparison points run kCompareRepeats times each, as alternating pairs.
std::vector<std::size_t> run_order(const std::vector<PointSpec>& points) {
  std::size_t a = points.size();
  std::size_t c = points.size();
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (is_label(points[i], "A-")) a = i;
    if (is_label(points[i], "C-")) c = i;
  }
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (i != a && i != c) {
      order.push_back(i);
    } else if (i == std::min(a, c)) {
      for (std::size_t r = 0; r < kCompareRepeats; ++r) {
        order.push_back(r % 2 == 0 ? a : c);
        order.push_back(r % 2 == 0 ? c : a);
      }
    }
  }
  return order;
}

/// Median contacts/s over a point's samples (0 when it never ran).
double median_rate(const std::vector<PointResult>& samples) {
  util::PercentileTracker rates;
  for (const PointResult& p : samples) rates.add(p.contacts_per_second);
  return rates.empty() ? 0.0 : rates.median();
}

/// True when this platform can run the point as specified.
bool point_available(const PointSpec& spec) {
  return !spec.batched || net::fleet_udp_batched_available();
}

PointResult run_point(const PointSpec& spec) {
  const FleetScenario scenario(spec.point, kExperimentSeed);
  net::FleetConfig cfg = make_fleet_config(scenario, "");
  PointResult out;
  if (spec.udp) {
    cfg.shards = 2;
    cfg.udp.base_port = spec.base_port;
    cfg.udp.batched_io = spec.batched;
    cfg.udp.per_node_sockets = spec.per_node_sockets;
    if (spec.per_node_sockets) {
      raise_fd_limit(spec.point.nodes + 4 * cfg.shards + 64);
    }
    net::FleetRuntime fleet(cfg);
    out.take(fleet.run_udp(scenario.trace, scenario.workload));
  } else {
    net::FleetRuntime fleet(cfg);
    out.take(fleet.run_loopback(scenario.trace, scenario.workload));
    if (spec.differential) {
      out.differential_ok = fleet_matches_engine(scenario, cfg, out.protocol);
    }
  }
  out.peak_rss_bytes = peak_rss_bytes();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  print_header(smoke ? "Fleet runtime (CI smoke subset)" : "Fleet runtime");
  WallTimer wall;

  const std::vector<PointSpec> points = smoke ? smoke_points() : full_points();

  std::printf("%-22s | %7s | %8s | %8s | %12s | %9s | %8s | %8s\n", "point",
              "nodes", "contacts", "seconds", "contacts/sec", "delivered",
              "p99 ms", "RSS MiB");

  for (const PointSpec& spec : points) {
    if (!point_available(spec)) {
      std::printf("%-22s | skipped (batched io unavailable here)\n",
                  spec.label);
    }
  }
  // samples[i]: every run of point i, in run order.
  std::vector<std::vector<PointResult>> samples(points.size());
  bool all_ok = true;
  for (const std::size_t i : run_order(points)) {
    const PointSpec& spec = points[i];
    if (!point_available(spec)) continue;
    PointResult p;
    if (!run_isolated([&] { return run_point(spec); }, p)) {
      std::fprintf(stderr, "point %s FAILED to run\n", spec.label);
      all_ok = false;
      continue;
    }
    samples[i].push_back(p);
    const std::string name =
        std::string(spec.label) + " #" + std::to_string(samples[i].size());
    std::printf("%-22s | %7zu | %8zu | %8.2f | %12.0f | %9llu | %8.1f | "
                "%8.1f\n",
                name.c_str(), spec.point.nodes, spec.point.contacts,
                p.wall_seconds, p.contacts_per_second,
                static_cast<unsigned long long>(p.protocol.deliveries),
                p.p99_delivery_latency_ms,
                static_cast<double>(p.peak_rss_bytes) / (1 << 20));
  }

  std::vector<std::string> json_points;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const PointSpec& spec = points[i];
    const double median = median_rate(samples[i]);
    for (std::size_t k = 0; k < samples[i].size(); ++k) {
      const PointResult& p = samples[i][k];
      json_points.push_back(
          JsonObject()
              .field("label", std::string(spec.label))
              .field("sample", static_cast<std::uint64_t>(k))
              .field("mode", std::string(spec.udp ? "udp" : "loopback"))
              .field("io", std::string(!spec.udp      ? "n/a"
                                       : spec.batched ? "batched"
                                                      : "single"))
              .field("sockets",
                     std::string(!spec.udp               ? "n/a"
                                 : spec.per_node_sockets ? "node"
                                                         : "shard"))
              .field("nodes", static_cast<std::uint64_t>(spec.point.nodes))
              .field("contacts",
                     static_cast<std::uint64_t>(spec.point.contacts))
              .field("messages",
                     static_cast<std::uint64_t>(spec.point.messages))
              .field("reactor_threads",
                     static_cast<std::uint64_t>(p.reactor_threads))
              .field("seconds", p.wall_seconds)
              .field("contacts_per_sec", p.contacts_per_second)
              .field("median_contacts_per_sec", median)
              .field("deliveries_per_sec", p.deliveries_per_second)
              .field("deliveries", p.protocol.deliveries)
              .field("expected_deliveries", p.protocol.expected_deliveries)
              .field("p50_delivery_latency_ms", p.p50_delivery_latency_ms)
              .field("p99_delivery_latency_ms", p.p99_delivery_latency_ms)
              .field("contacts_timed_out", p.contacts_timed_out)
              .field("send_syscalls", p.send_syscalls)
              .field("recv_syscalls", p.recv_syscalls)
              .field("datagrams_out", p.datagrams_out)
              .field("sendq_drops", p.sendq_drops)
              .field("unroutable_drops", p.unroutable_drops)
              .field("peak_rss_bytes", p.peak_rss_bytes)
              .field("differential",
                     std::string(!spec.differential  ? "n/a"
                                 : p.differential_ok ? "pass"
                                                     : "FAIL"))
              .str());
    }
  }

  // Gate 1: every loopback point is bit-identical to the engine harness.
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (!points[i].differential) continue;
    for (const PointResult& p : samples[i]) {
      std::printf("differential @ %s: %s\n", points[i].label,
                  p.differential_ok ? "bit-identical" : "MISMATCH");
      if (!p.differential_ok) all_ok = false;
    }
  }

  // Gate 2: the fleet I/O plane (C) vs the naive scale-out (A), on the
  // median of each point's samples.
  {
    const std::vector<PointResult>* naive = nullptr;
    const std::vector<PointResult>* fleet = nullptr;
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (samples[i].empty()) continue;
      if (is_label(points[i], "A-")) naive = &samples[i];
      if (is_label(points[i], "C-")) fleet = &samples[i];
    }
    if (naive != nullptr && fleet != nullptr) {
      const double a = median_rate(*naive);
      const double c = median_rate(*fleet);
      const double speedup = a > 0.0 ? c / a : 0.0;
      const bool ok = speedup >= kSpeedupFloor;
      std::printf("speedup C/A (median of %zu / %zu samples): %.0f / %.0f "
                  "contacts/s = %.2fx (floor %.1fx): %s\n",
                  fleet->size(), naive->size(), c, a, speedup, kSpeedupFloor,
                  ok ? "OK" : "VIOLATION");
      if (!ok) all_ok = false;
    } else if (!smoke) {
      std::printf("speedup C/A: not judged (a comparison point is "
                  "unavailable on this platform)\n");
    }
  }

  // Gates 3 + 4: throughput floors; every contact completes, few time out.
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (!points[i].udp) continue;
    const PointSpec& spec = points[i];
    const double floor = spec.per_node_sockets ? kPerNodeThroughputFloor
                                               : kShardThroughputFloor;
    for (const PointResult& p : samples[i]) {
      if (p.contacts_per_second < floor) {
        std::fprintf(stderr,
                     "throughput floor violation @ %s: %.0f contacts/s "
                     "(floor %.0f)\n",
                     spec.label, p.contacts_per_second, floor);
        all_ok = false;
      }
      if (p.protocol.contacts_processed != spec.point.contacts) {
        std::fprintf(stderr, "lost contacts @ %s: %llu of %zu completed\n",
                     spec.label,
                     static_cast<unsigned long long>(
                         p.protocol.contacts_processed),
                     spec.point.contacts);
        all_ok = false;
      }
      if (static_cast<double>(p.contacts_timed_out) >
          kTimeoutCeiling * static_cast<double>(spec.point.contacts)) {
        std::fprintf(stderr,
                     "timeout ceiling violation @ %s: %llu timed out\n",
                     spec.label,
                     static_cast<unsigned long long>(p.contacts_timed_out));
        all_ok = false;
      }
    }
  }

  write_bench_json(smoke ? "fleet_smoke" : "fleet", wall.seconds(),
                   json_points);
  std::printf("fleet bench: %s\n", all_ok ? "all gates passed" : "FAILED");
  return all_ok ? 0 : 1;
}
