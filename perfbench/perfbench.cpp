// bsub_perfbench: runs the repository benchmark.
//
//   bsub_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--smoke] [--source-id TEXT]
//
// Runs one named workload over the public entry points
// sim::Simulator::run and net::FleetRuntime::run_udp until `--seconds` have
// been measured. A workload replays one fixed trace under several
// publish/subscribe workloads ("draws") derived from `--seed`; repeats
// cycle through the draws, and every repeat runs in its own forked process
// (bench/fork_util.h), so peak RSS, TCBF kernel dispatch and lazy pools
// belong to that repeat alone.
//
// End-to-end times are in reference seconds, which take out the shared
// host's drift in speed (see host_probe_seconds).
//
// A metric is num/den of a repeat (den = 1 for plain values). Its reported
// value is the sum over draws of the per-draw median of num, over the same
// sum of den: per-draw medians damp the host's repeat-to-repeat noise, and
// pooling the draws damps the seed-to-seed swing of a single draw's
// delivery and forwarding figures.
//
// --trace 0 reports the end-to-end metrics from untraced repeats.
// --trace 1 alternates untraced and traced repeats of each draw and reports
// the per-layer metrics from the traced ones (timing decorators in
// tracing.h plus the counters the public results expose) and the tracing
// overhead.
//
// Every repeat's outputs are checked: deliveries <= expected and > 0; on
// the deterministic simulator workloads the semantic results of a draw are
// bit-identical across its repeats, traced or not; on fleet-udp every
// issued contact completes and nothing is unroutable. A failed check makes
// the result incorrect and the exit code 1.
//
// Output: one line per repeat, one JSON report line with the run's
// provenance, every figure the workload's users see and the sample counts,
// then, last, the result line {"correct", "attempted", "failed", "metrics"}.
#include <sys/resource.h>
#include <unistd.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bloom/kernels.h"
#include "core/bsub_protocol.h"
#include "core/df_tuning.h"
#include "core/protocol_registry.h"
#include "experiment_common.h"
#include "fleet_common.h"
#include "fork_util.h"
#include "net/fleet/fleet_runtime.h"
#include "net/reactor.h"
#include "resource_stats.h"
#include "scale_common.h"
#include "sim/simulator.h"
#include "trace/city.h"
#include "trace/synthetic.h"
#include "tracing.h"
#include "workload/workload.h"

namespace {

using namespace bsub;
using bsub::perfbench::Clock;
using bsub::perfbench::seconds_between;

// --- workloads ---------------------------------------------------------------

enum class Kind { kHaggle, kCity, kFleet };

struct WorkloadSpec {
  const char* name;
  Kind kind;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"haggle-bsub", Kind::kHaggle},
    {"city-bsub", Kind::kCity},
    {"fleet-udp", Kind::kFleet},
};

/// Scenario sizes. The full sizes are the benchmark; the smoke sizes only
/// prove that every metric is produced.
struct Sizes {
  std::size_t haggle_contacts;  ///< 0 keeps the preset's 67,360
  std::size_t city_nodes;
  std::uint64_t city_contacts;
  std::size_t city_messages;
  bench::FleetPoint fleet;
  std::size_t draws[3];  ///< per Kind
};

/// city-bsub publishes 2,000 messages per draw: with the scale bench's 200,
/// a draw delivers a few dozen and its delivery ratio swings by a fifth from
/// seed to seed; forwarding stays under 1% of the contact work either way.
constexpr Sizes kFullSizes{0, 10000, 300000, 2000, {1000, 60000, 500},
                           {4, 4, 3}};
constexpr Sizes kSmokeSizes{4000, 1000, 20000, 50, {100, 2000, 50},
                            {1, 1, 1}};

/// Each workload replays one fixed trace (the repository's experiment seed;
/// for haggle-bsub it is the paper's Haggle-like trace) and `--seed` draws
/// the publish/subscribe workloads on it, as the paper's evaluation varies
/// workloads over fixed recorded traces.
constexpr std::uint64_t kTraceSeed = bench::kExperimentSeed;

/// Workload seed of draw `k` of a run seeded `seed` (disjoint across seeds).
std::uint64_t draw_seed(std::uint64_t seed, std::size_t k) {
  return seed * 64 + k;
}

/// Eq. 5's delay bound for haggle-bsub: DF tuned for a 10 h TTL (W = TTL).
constexpr util::Time kHaggleTtl = 10 * util::kHour;
constexpr const char* kCitySpec = bench::kScaleDefaultProtocol;  // B-SUB:df=0.5
constexpr std::size_t kFleetShards = 2;

std::size_t sim_threads(Kind kind) {
  if (kind != Kind::kCity) return 1;
  const unsigned hw = std::thread::hardware_concurrency();
  return std::min<std::size_t>(4, hw == 0 ? 1 : hw);
}

// --- one repeat --------------------------------------------------------------

/// Everything one repeat (one draw) measured. Trivially copyable: it
/// crosses the fork pipe as raw bytes.
struct Repeat {
  bool ok = false;
  char error[200] = {};
  char kernel[16] = {};
  char reactor[16] = {};
  bool traced = false;
  std::uint64_t draw = 0;
  std::uint64_t threads = 0;  ///< simulator threads / reactor threads

  double setup_s = 0.0;
  double run_s = 0.0;
  double probe_s = 0.0;  ///< host_probe_seconds() around the repeat
  double user_cpu_s = 0.0;
  double sys_cpu_s = 0.0;
  std::uint64_t peak_rss_bytes = 0;
  std::uint64_t issued = 0;     ///< contacts handed to the program
  std::uint64_t processed = 0;  ///< contacts it completed

  // Semantic results.
  std::uint64_t messages_created = 0;
  std::uint64_t expected = 0;
  std::uint64_t deliveries = 0;  ///< interested (genuine) deliveries
  std::uint64_t false_deliveries = 0;
  std::uint64_t forwardings = 0;  ///< message-body transmissions
  std::uint64_t message_bytes = 0;
  std::uint64_t control_bytes = 0;
  double delivery_ratio = 0.0;
  double delay_p50_min = 0.0;
  double false_positive_rate = 0.0;

  // Simulator execution shape (ParallelRunStats) and hot-path counters.
  std::uint64_t events = 0;
  std::uint64_t windows = 0;
  std::uint64_t batches = 0;
  std::uint64_t parallel_batches = 0;
  metrics::HotPathStats hot{};

  // B-SUB observability.
  std::uint64_t pickups = 0;
  std::uint64_t broker_transfers = 0;
  std::uint64_t bsub_deliveries = 0;
  std::uint64_t false_injections = 0;
  std::uint64_t materialized_relays = 0;
  std::uint64_t election_state_bytes = 0;
  std::uint64_t brokers_final = 0;
  double relay_fpr = 0.0;

  // Decorator timings (traced repeats only).
  double next_s = 0.0;
  std::uint64_t stream_contacts = 0;
  double caller_protocol_s = 0.0;  ///< protocol time on the calling thread
  double contact_busy_s = 0.0;     ///< on_contact, all threads
  double message_busy_s = 0.0;
  double start_s = 0.0;
  double end_s = 0.0;
  double contact_us_p50 = 0.0;
  double contact_us_p99 = 0.0;
  std::uint64_t contact_samples = 0;
  std::uint64_t link_bytes = 0;

  // Live plane (fleet-udp).
  double latency_p50_ms = 0.0;
  double latency_p99_ms = 0.0;
  std::uint64_t timed_out = 0;
  std::uint64_t send_syscalls = 0;
  std::uint64_t recv_syscalls = 0;
  std::uint64_t datagrams_out = 0;
  std::uint64_t datagrams_in = 0;
  std::uint64_t sendq_drops = 0;
  std::uint64_t unroutable_drops = 0;
  std::uint64_t frames_delivered = 0;
  metrics::TransportStats transport{};
};

void copy_text(char* dst, std::size_t cap, std::string_view src) {
  const std::size_t n = std::min(cap - 1, src.size());
  std::memcpy(dst, src.data(), n);
  dst[n] = '\0';
}

double cpu_seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

struct CpuMark {
  rusage usage{};
  CpuMark() { getrusage(RUSAGE_SELF, &usage); }
};

void note_cpu(const CpuMark& before, Repeat& r) {
  const CpuMark after;
  r.user_cpu_s = cpu_seconds(after.usage.ru_utime) -
                 cpu_seconds(before.usage.ru_utime);
  r.sys_cpu_s =
      cpu_seconds(after.usage.ru_stime) - cpu_seconds(before.usage.ru_stime);
}

double percentile(std::vector<std::uint32_t>& v, double p) {
  if (v.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(v.size() - 1) + 0.5);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  return static_cast<double>(v[idx]);
}

/// Reads the decorators after a traced simulator run.
void take_trace(const perfbench::TimedStream& stream,
                const perfbench::TimedProtocol& proto, Repeat& r) {
  r.next_s = stream.next_seconds();
  r.stream_contacts = stream.contacts();
  r.start_s = proto.start_seconds();
  r.end_s = proto.end_seconds();
  r.caller_protocol_s = r.start_s + r.end_s;
  std::vector<std::uint32_t> samples;
  for (const auto& slot : proto.slots()) {
    r.contact_busy_s += slot->contact_s;
    r.message_busy_s += slot->message_s;
    r.link_bytes += slot->link_bytes;
    if (slot->thread == proto.caller()) {
      r.caller_protocol_s += slot->contact_s + slot->message_s;
    }
    samples.insert(samples.end(), slot->contact_ns.begin(),
                   slot->contact_ns.end());
  }
  r.contact_samples = samples.size();
  r.contact_us_p50 = percentile(samples, 0.50) / 1e3;
  r.contact_us_p99 = percentile(samples, 0.99) / 1e3;
}

/// Runs a prepared simulator draw (traced or not) and fills the semantic,
/// execution-shape and B-SUB fields.
void run_simulator(trace::ContactStream& contacts, const workload::Workload& w,
                   sim::Protocol& proto, std::size_t threads, bool traced,
                   Repeat& r) {
  sim::SimulatorConfig cfg;
  cfg.threads = threads;
  sim::Simulator simulator(cfg);

  metrics::RunResults res;
  const CpuMark cpu;
  if (traced) {
    perfbench::TimedStream timed_stream(contacts);
    perfbench::TimedProtocol timed_proto(proto);
    const Clock::time_point t0 = Clock::now();
    res = simulator.run(timed_stream, w, timed_proto);
    r.run_s = seconds_between(t0, Clock::now());
    take_trace(timed_stream, timed_proto, r);
  } else {
    const Clock::time_point t0 = Clock::now();
    res = simulator.run(contacts, w, proto);
    r.run_s = seconds_between(t0, Clock::now());
  }
  note_cpu(cpu, r);

  const sim::ParallelRunStats& st = simulator.last_run_stats();
  r.threads = st.threads_used;
  r.events = st.events;
  r.windows = st.windows;
  r.batches = st.batches;
  r.parallel_batches = st.parallel_batches;
  r.processed = st.events - res.messages_created;
  r.issued = r.processed;

  r.messages_created = res.messages_created;
  r.expected = res.expected_deliveries;
  r.deliveries = res.interested_deliveries;
  r.false_deliveries = res.false_deliveries;
  r.forwardings = res.forwardings;
  r.message_bytes = res.message_bytes;
  r.control_bytes = res.control_bytes;
  r.delivery_ratio = res.delivery_ratio;
  r.delay_p50_min = res.median_delay_minutes;
  r.false_positive_rate = res.false_positive_rate;
  r.hot = res.hot_path;

  if (const auto* bsub = dynamic_cast<const core::BsubProtocol*>(&proto)) {
    const core::BsubProtocol::TrafficBreakdown t = bsub->traffic();
    r.pickups = t.pickups;
    r.broker_transfers = t.broker_transfers;
    r.bsub_deliveries = t.deliveries;
    r.false_injections = bsub->false_injections();
    r.relay_fpr = bsub->measured_relay_fpr();
    r.materialized_relays = bsub->interests().materialized_relays();
    r.election_state_bytes = bsub->election().state_bytes_reserved();
    r.brokers_final = bsub->election().broker_count();
  }
}

void run_haggle(const Sizes& sizes, std::uint64_t seed, bool traced,
                Repeat& r) {
  const Clock::time_point t0 = Clock::now();
  trace::SyntheticTraceConfig tcfg = trace::haggle_infocom06_config(kTraceSeed);
  if (sizes.haggle_contacts != 0) tcfg.contact_count = sizes.haggle_contacts;
  const trace::ContactTrace trace = trace::generate_trace(tcfg);
  const workload::KeySet keys = workload::twitter_trend_keys();
  workload::WorkloadConfig wcfg;
  wcfg.ttl = kHaggleTtl;
  wcfg.seed = draw_seed(seed, r.draw);
  const workload::Workload w(trace, keys, wcfg);
  core::BsubConfig cfg;
  cfg.df_per_minute = core::compute_df(trace, kHaggleTtl, cfg.filter_params,
                                       cfg.initial_counter)
                          .df_per_minute;
  const std::unique_ptr<sim::Protocol> proto =
      bench::protocol_registry().make(core::bsub_spec(cfg));
  trace::MaterializedStream stream(trace);
  r.setup_s = seconds_between(t0, Clock::now());
  run_simulator(stream, w, *proto, sim_threads(Kind::kHaggle), traced, r);
}

void run_city(const Sizes& sizes, std::uint64_t seed, bool traced,
              Repeat& r) {
  const Clock::time_point t0 = Clock::now();
  const trace::CityTraceConfig city =
      trace::city_config(sizes.city_nodes, sizes.city_contacts, kTraceSeed);
  const util::Time duration = static_cast<util::Time>(city.days) * util::kDay;
  const std::unique_ptr<trace::ContactStream> stream =
      trace::make_city_stream(city);
  const workload::KeySet keys = workload::twitter_trend_keys();
  const workload::Workload w =
      bench::make_scale_workload(keys, sizes.city_nodes, sizes.city_messages,
                                 duration, draw_seed(seed, r.draw));
  const std::unique_ptr<sim::Protocol> proto =
      bench::protocol_registry().make(kCitySpec);
  r.setup_s = seconds_between(t0, Clock::now());
  run_simulator(*stream, w, *proto, sim_threads(Kind::kCity), traced, r);
}

/// Shard ports for one fleet attempt: spread over [20000, 60000) by pid and
/// attempt, so back-to-back (or concurrent) repeats do not reuse a pair; a
/// pair that is taken anyway fails bind and the repeat retries another.
std::uint16_t fleet_base_port(int attempt) {
  const std::uint64_t h =
      (static_cast<std::uint64_t>(getpid()) * 2654435761ULL +
       static_cast<std::uint64_t>(attempt) * 40503ULL) %
      19999;
  return static_cast<std::uint16_t>(20000 + 2 * h);
}

void run_fleet(const Sizes& sizes, std::uint64_t seed, bool traced,
               Repeat& r) {
  const Clock::time_point t0 = Clock::now();
  const bench::FleetPoint& point = sizes.fleet;
  trace::SyntheticTraceConfig tcfg;
  tcfg.node_count = point.nodes;
  tcfg.contact_count = point.contacts;
  tcfg.duration = bench::kFleetDuration;
  tcfg.community_count = std::max<std::size_t>(1, point.nodes / 50);
  tcfg.seed = kTraceSeed;
  const trace::ContactTrace trace = trace::generate_trace(tcfg);
  // The fleet workload shape of bench/fleet_common.h (round-robin
  // interests, hash-spread producers, creations spread over the trace, 6 h
  // TTL), drawn by its own seed.
  const workload::KeySet keys = workload::twitter_trend_keys();
  const workload::Workload w = bench::make_scale_workload(
      keys, point.nodes, point.messages, bench::kFleetDuration,
      draw_seed(seed, r.draw));
  // bench/fleet_common.h's default fleet config: Eq. 5 DF tuned on the
  // trace for the 6 h TTL, no decay ticks.
  net::FleetConfig cfg;
  cfg.runtime.decay_tick = 0;
  cfg.runtime.node.df_per_minute =
      core::compute_df(trace, bench::kFleetTtl, cfg.runtime.node.filter_params,
                       cfg.runtime.node.initial_counter)
          .df_per_minute;
  cfg.shards = kFleetShards;
  const double prepare_s = seconds_between(t0, Clock::now());

  constexpr int kAttempts = 8;
  for (int attempt = 0;; ++attempt) {
    cfg.udp.base_port = fleet_base_port(attempt);
    const Clock::time_point s0 = Clock::now();
    net::FleetRuntime fleet(cfg);
    r.setup_s = prepare_s + seconds_between(s0, Clock::now());

    trace::MaterializedStream contacts(trace);
    perfbench::TimedStream timed(contacts);
    net::FleetRunResults res;
    const CpuMark cpu;
    try {
      const Clock::time_point t1 = Clock::now();
      res = traced ? fleet.run_udp(timed, w) : fleet.run_udp(contacts, w);
      r.run_s = seconds_between(t1, Clock::now());
    } catch (const std::runtime_error& e) {
      if (attempt + 1 < kAttempts && std::strstr(e.what(), "bind") != nullptr) {
        continue;
      }
      throw;
    }
    note_cpu(cpu, r);
    if (traced) {
      r.next_s = timed.next_seconds();
      r.stream_contacts = timed.contacts();
    }

    r.threads = res.reactor_threads;
    r.issued = trace.contacts().size();
    r.processed = res.protocol.contacts_processed;
    r.messages_created = w.messages().size();
    r.expected = res.protocol.expected_deliveries;
    r.deliveries = res.protocol.deliveries;
    r.delivery_ratio = res.protocol.delivery_ratio;
    r.delay_p50_min = res.p50_delivery_latency_ms / 60000.0;
    r.latency_p50_ms = res.p50_delivery_latency_ms;
    r.latency_p99_ms = res.p99_delivery_latency_ms;
    r.timed_out = res.contacts_timed_out;
    r.send_syscalls = res.send_syscalls;
    r.recv_syscalls = res.recv_syscalls;
    r.datagrams_out = res.datagrams_out;
    r.datagrams_in = res.datagrams_in;
    r.sendq_drops = res.sendq_drops;
    r.unroutable_drops = res.unroutable_drops;
    r.frames_delivered = res.protocol.frames_delivered;
    r.transport = res.transport;
    // Message bodies that crossed a link: deliveries offered to consumers
    // plus every custody hand-off (producer pickups and broker transfers,
    // counted at the receiving broker whether accepted or refused).
    for (std::size_t n = 0; n < trace.node_count(); ++n) {
      const engine::BsubNode& node = fleet.node(static_cast<trace::NodeId>(n));
      r.forwardings += node.deliveries_made() + node.custody_accepted() +
                       node.custody_refused();
      r.pickups += node.pickups_sent();
      r.brokers_final += node.is_broker() ? 1 : 0;
    }
    return;
  }
}

Repeat run_repeat(Kind kind, const Sizes& sizes, std::uint64_t seed,
                  std::size_t draw, bool traced) {
  Repeat r;
  r.traced = traced;
  r.draw = draw;
  try {
    switch (kind) {
      case Kind::kHaggle: run_haggle(sizes, seed, traced, r); break;
      case Kind::kCity: run_city(sizes, seed, traced, r); break;
      case Kind::kFleet: run_fleet(sizes, seed, traced, r); break;
    }
    r.ok = true;
  } catch (const std::exception& e) {
    copy_text(r.error, sizeof r.error, e.what());
  }
  r.peak_rss_bytes = bench::peak_rss_bytes();
  copy_text(r.kernel, sizeof r.kernel,
            bloom::kernels::kind_name(bloom::kernels::active_kind()));
  copy_text(r.reactor, sizeof r.reactor,
            net::reactor_backend_name(net::default_reactor_backend()));
  return r;
}

// --- checks -----------------------------------------------------------------

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// The fields a performance change must leave unchanged on the
/// deterministic simulator workloads.
bool same_semantics(const Repeat& a, const Repeat& b) {
  return a.messages_created == b.messages_created &&
         a.expected == b.expected && a.deliveries == b.deliveries &&
         a.false_deliveries == b.false_deliveries &&
         a.forwardings == b.forwardings &&
         a.message_bytes == b.message_bytes &&
         a.control_bytes == b.control_bytes && a.processed == b.processed &&
         same_bits(a.delivery_ratio, b.delivery_ratio) &&
         same_bits(a.delay_p50_min, b.delay_p50_min) &&
         same_bits(a.false_positive_rate, b.false_positive_rate) &&
         a.pickups == b.pickups && a.broker_transfers == b.broker_transfers &&
         a.bsub_deliveries == b.bsub_deliveries &&
         a.false_injections == b.false_injections &&
         same_bits(a.relay_fpr, b.relay_fpr) &&
         a.brokers_final == b.brokers_final;
}

/// Output checks of one repeat against the first good repeat of its draw;
/// returns the failures (empty when correct).
std::vector<std::string> check_repeat(Kind kind, const Repeat& r,
                                      const Repeat* reference) {
  std::vector<std::string> fails;
  if (!r.ok) {
    fails.push_back(std::string("repeat failed: ") + r.error);
    return fails;
  }
  if (r.deliveries > r.expected) fails.push_back("deliveries > expected");
  if (r.deliveries == 0) fails.push_back("no deliveries: protocol idle");
  if (kind == Kind::kFleet) {
    if (r.processed != r.issued) {
      fails.push_back("contacts processed != contacts issued");
    }
    if (r.unroutable_drops != 0) fails.push_back("unroutable drops");
    if (r.traced && r.stream_contacts != r.issued) {
      fails.push_back("traced stream yielded a different contact count");
    }
    return fails;
  }
  if (reference != nullptr && !same_semantics(*reference, r)) {
    fails.push_back(r.traced ? "traced semantics differ from untraced"
                             : "semantics differ between repeats");
  }
  if (r.traced) {
    if (r.stream_contacts != r.processed) {
      fails.push_back("traced stream yielded a different contact count");
    }
    if (r.run_s - r.next_s - r.caller_protocol_s < 0.0) {
      fails.push_back("sim.self_s < 0: decorator spans overlap");
    }
  }
  return fails;
}

// --- host speed -------------------------------------------------------------

/// The shared host this benchmark runs on changes speed by up to half
/// within minutes (the same draw measured 0.45 s and 0.85 s of wall and CPU
/// time alike, an hour apart), which no amount of repetition inside one
/// run averages out. Each repeat is therefore bracketed by a host-speed
/// probe, and the end-to-end times are reported in reference seconds:
/// seconds on a host that runs the probe in kProbeReferenceSeconds.
///
/// The probe is fixed compute-bound work owned by the benchmark (exponential
/// draws and sorts over an L1/L2-resident array, the same kind of work as
/// trace generation), so no change to the program moves it. It runs in the
/// parent process, whose state no workload touches. Over 10-seed sets,
/// raw haggle-bsub setup time (trace generation) times throughput varied a
/// third as much as throughput alone, which spread by 15-40%: the drift
/// slows such work and the workloads alike.
constexpr double kProbeReferenceSeconds = 0.05;

/// Keeps the probe's result observable so its work is not optimized away.
volatile double g_probe_sink = 0.0;

double host_probe_seconds() {
  const Clock::time_point t0 = Clock::now();
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  std::vector<double> v(4096);
  double acc = 0.0;
  for (int round = 0; round < 160; ++round) {
    for (double& d : v) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      d = -std::log((static_cast<double>(x >> 11) + 0.5) * 0x1.0p-53);
    }
    std::sort(v.begin(), v.end());
    acc += v[v.size() / 2];
  }
  g_probe_sink = acc;
  return seconds_between(t0, Clock::now());
}

/// Reference seconds per wall second during the repeat.
double to_reference(const Repeat& r) {
  return r.probe_s > 0.0 ? kProbeReferenceSeconds / r.probe_s : 1.0;
}

// --- metrics ----------------------------------------------------------------

using Field = double (*)(const Repeat&);

/// A metric is num/den of a repeat, pooled over draws (see the top of the
/// file). den == nullptr means 1: the mean over draws of per-draw medians.
struct MetricDef {
  const char* name;
  const char* unit;
  Field num;
  Field den = nullptr;
};

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Repeats grouped by draw.
using Groups = std::vector<std::vector<const Repeat*>>;

double evaluate(const MetricDef& def, const Groups& groups) {
  double num = 0.0;
  double den = 0.0;
  for (const auto& group : groups) {
    if (group.empty()) continue;
    std::vector<double> ns;
    std::vector<double> ds;
    for (const Repeat* r : group) {
      ns.push_back(def.num(*r));
      ds.push_back(def.den != nullptr ? def.den(*r) : 1.0);
    }
    num += median(ns);
    den += median(ds);
  }
  return ratio(num, den);
}

std::vector<Metric> evaluate_all(const std::vector<MetricDef>& defs,
                                 const Groups& groups) {
  std::vector<Metric> out;
  for (const MetricDef& d : defs) {
    out.push_back({d.name, d.unit, evaluate(d, groups)});
  }
  return out;
}

double u(std::uint64_t v) { return static_cast<double>(v); }
double delivered(const Repeat& r) {
  return u(r.deliveries + r.false_deliveries);
}
double processed(const Repeat& r) { return u(r.processed); }
double run_s(const Repeat& r) { return r.run_s; }

const MetricDef kContactsPerWallS{"contacts_per_wall_s", "1/s", processed,
                                  run_s};

/// Throughput in reference seconds (see host_probe_seconds).
const MetricDef kContactsPerRefS{
    "contacts_per_ref_s", "1/s", processed,
    [](const Repeat& r) { return r.run_s * to_reference(r); }};

/// The end-to-end metrics: defined, and never zero, on every workload.
const std::vector<MetricDef> kEndToEnd = {
    kContactsPerRefS,
    {"setup_s", "s",
     [](const Repeat& r) { return r.setup_s * to_reference(r); }},
    {"peak_rss_mb", "MB",
     [](const Repeat& r) { return u(r.peak_rss_bytes) / (1 << 20); }},
    {"delivery_ratio", "ratio", [](const Repeat& r) { return u(r.deliveries); },
     [](const Repeat& r) { return u(r.expected); }},
    {"forwardings_per_delivery", "count",
     [](const Repeat& r) { return u(r.forwardings); }, delivered},
};

/// A draw's median delay swings by a third from seed to seed on
/// haggle-bsub (a fifth even pooled over its four draws), so it is tracked per
/// layer rather than bounded end to end.
const MetricDef kDelayP50{"delay_p50_min", "min",
                          [](const Repeat& r) { return r.delay_p50_min; }};

const MetricDef kControlBytesPerDelivery{
    "control_bytes_per_delivery", "B",
    [](const Repeat& r) { return u(r.control_bytes); }, delivered};
const MetricDef kFalsePositiveRate{
    "false_positive_rate", "ratio",
    [](const Repeat& r) { return u(r.false_deliveries); }, delivered};
const MetricDef kLatencyP50{"delivery_latency_p50_ms", "ms",
                            [](const Repeat& r) { return r.latency_p50_ms; }};
const MetricDef kLatencyP99{"delivery_latency_p99_ms", "ms",
                            [](const Repeat& r) { return r.latency_p99_ms; }};
const MetricDef kTimeoutRatio{"contact_timeout_ratio", "ratio",
                              [](const Repeat& r) { return u(r.timed_out); },
                              [](const Repeat& r) { return u(r.issued); }};

/// Every end-to-end figure the workload's users see. The ones that are not
/// defined on every workload, or not steady across seeds, are tracked under
/// a per-layer name instead (see perfbench/layers.json).
std::vector<MetricDef> workload_view(Kind kind) {
  std::vector<MetricDef> defs = kEndToEnd;
  defs.insert(defs.end(), {kContactsPerWallS, kDelayP50});
  if (kind == Kind::kFleet) {
    defs.insert(defs.end(), {kLatencyP50, kLatencyP99, kTimeoutRatio});
  } else {
    defs.insert(defs.end(), {kControlBytesPerDelivery, kFalsePositiveRate});
  }
  return defs;
}

MetricDef renamed(MetricDef def, const char* name) {
  def.name = name;
  return def;
}

/// Zero on the fleet workload, which has no Simulator.
double sim_self_s(const Repeat& r) {
  return r.events == 0 ? 0.0 : r.run_s - r.next_s - r.caller_protocol_s;
}
double protocol_busy_s(const Repeat& r) {
  return r.contact_busy_s + r.message_busy_s;
}

const std::vector<MetricDef> kPerLayer = {
    // trace: contact streams and generators.
    {"trace.next_s", "s", [](const Repeat& r) { return r.next_s; }},
    {"trace.contacts", "count",
     [](const Repeat& r) { return u(r.stream_contacts); }},
    // sim: event merge, windowed conflict executor, store, link budget.
    {"sim.self_s", "s", sim_self_s},
    {"sim.windows", "count", [](const Repeat& r) { return u(r.windows); }},
    {"sim.batches", "count", [](const Repeat& r) { return u(r.batches); }},
    {"sim.parallel_batch_share", "ratio",
     [](const Repeat& r) { return u(r.parallel_batches); },
     [](const Repeat& r) { return u(r.batches); }},
    {"sim.mean_batch_events", "count",
     [](const Repeat& r) { return u(r.events); },
     [](const Repeat& r) { return u(r.batches); }},
    {"sim.worker_busy_s", "s",
     [](const Repeat& r) { return r.events == 0 ? 0.0 : protocol_busy_s(r); }},
    {"sim.worker_idle_s", "s",
     [](const Repeat& r) {
       return r.events == 0 ? 0.0 : u(r.threads) * r.run_s - protocol_busy_s(r);
     }},
    {"sim.purge_scan_ratio", "ratio",
     [](const Repeat& r) { return u(r.hot.purge_scans_run); },
     [](const Repeat& r) {
       return u(r.hot.purge_scans_run + r.hot.purge_scans_skipped);
     }},
    {"sim.payload_copy_ratio", "ratio",
     [](const Repeat& r) { return u(r.hot.payload_copies_made); },
     [](const Repeat& r) {
       return u(r.hot.payload_copies_made + r.hot.payload_copies_avoided);
     }},
    {"sim.link_bytes_per_contact", "B",
     [](const Repeat& r) { return u(r.link_bytes); },
     [](const Repeat& r) { return u(r.contact_samples); }},
    // core: B-SUB election, interest propagation, forwarding.
    {"core.contact_busy_s", "s",
     [](const Repeat& r) { return r.contact_busy_s; }},
    {"core.contact_us_p50", "us",
     [](const Repeat& r) { return r.contact_us_p50; }},
    {"core.contact_us_p99", "us",
     [](const Repeat& r) { return r.contact_us_p99; }},
    {"core.message_busy_s", "s",
     [](const Repeat& r) { return r.message_busy_s; }},
    {"core.start_s", "s", [](const Repeat& r) { return r.start_s; }},
    {"core.end_s", "s", [](const Repeat& r) { return r.end_s; }},
    {"core.materialized_relays", "count",
     [](const Repeat& r) { return u(r.materialized_relays); }},
    {"core.election_state_bytes", "B",
     [](const Repeat& r) { return u(r.election_state_bytes); }},
    {"core.brokers_final", "count",
     [](const Repeat& r) { return u(r.brokers_final); }},
    {"core.pickups", "count", [](const Repeat& r) { return u(r.pickups); }},
    {"core.broker_transfers", "count",
     [](const Repeat& r) { return u(r.broker_transfers); }},
    {"core.deliveries", "count",
     [](const Repeat& r) { return u(r.bsub_deliveries); }},
    {"core.false_injections", "count",
     [](const Repeat& r) { return u(r.false_injections); }},
    {"core.relay_fpr", "ratio", [](const Repeat& r) { return r.relay_fpr; }},
    // metrics: outcome measures not bounded end to end (see workload_view).
    renamed(kDelayP50, "metrics.delay_p50_min"),
    renamed(kFalsePositiveRate, "metrics.false_positive_rate"),
    renamed(kControlBytesPerDelivery, "metrics.control_bytes_per_delivery"),
    // bloom: TCBF kernels and codec.
    {"bloom.encode_cache_hit_ratio", "ratio",
     [](const Repeat& r) { return u(r.hot.encode_cache_hits); },
     [](const Repeat& r) {
       return u(r.hot.encode_cache_hits + r.hot.encode_cache_misses);
     }},
    {"bloom.control_bytes_per_contact", "B",
     [](const Repeat& r) { return u(r.control_bytes); }, processed},
    // engine + net: frame-driven nodes, sessions, datagram I/O.
    {"engine.frames_per_contact", "count",
     [](const Repeat& r) { return u(r.frames_delivered); }, processed},
    {"net.datagrams_per_send_syscall", "count",
     [](const Repeat& r) { return u(r.datagrams_out); },
     [](const Repeat& r) { return u(r.send_syscalls); }},
    {"net.datagrams_per_recv_syscall", "count",
     [](const Repeat& r) { return u(r.datagrams_in); },
     [](const Repeat& r) { return u(r.recv_syscalls); }},
    {"net.retransmit_ratio", "ratio",
     [](const Repeat& r) { return u(r.transport.frames_retransmitted); },
     [](const Repeat& r) { return u(r.transport.frames_sent); }},
    {"net.datagrams_dropped", "count",
     [](const Repeat& r) { return u(r.transport.datagrams_dropped); }},
    {"net.session_timeouts", "count",
     [](const Repeat& r) { return u(r.transport.session_timeouts); }},
    {"net.sendq_drops", "count",
     [](const Repeat& r) { return u(r.sendq_drops); }},
    {"net.unroutable_drops", "count",
     [](const Repeat& r) { return u(r.unroutable_drops); }},
    renamed(kTimeoutRatio, "net.contact_timeout_ratio"),
    renamed(kLatencyP50, "net.delivery_latency_p50_ms"),
    renamed(kLatencyP99, "net.delivery_latency_p99_ms"),
    // bench: the raw wall-clock throughput and the host speed behind the
    // reference-second figures.
    renamed(kContactsPerWallS, "bench.contacts_per_wall_s"),
    {"bench.host_probe_ms", "ms",
     [](const Repeat& r) { return r.probe_s * 1e3; }},
    // proc: the repeat's process over its run call, all threads.
    {"proc.user_cpu_s", "s", [](const Repeat& r) { return r.user_cpu_s; }},
    {"proc.sys_cpu_s", "s", [](const Repeat& r) { return r.sys_cpu_s; }},
};

// --- provenance -------------------------------------------------------------

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_ext = __get_cpuid_max(0x80000000u, nullptr);
  if (max_ext >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    std::string s(reinterpret_cast<const char*>(regs), sizeof regs);
    s = s.c_str();
    const auto first = s.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : s.substr(first);
  }
#endif
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i != 0) out += ", ";
    out += json_string(ms[i].name) + ": {\"value\": " +
           json_number(ms[i].value) + ", \"unit\": " +
           json_string(ms[i].unit) + "}";
  }
  return out + "}";
}

// --- command line -----------------------------------------------------------

struct Options {
  const WorkloadSpec* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string source_id = "unknown";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "bsub_perfbench: %s\nusage: bsub_perfbench --workload "
               "haggle-bsub|city-bsub|fleet-udp --seed N --seconds S "
               "--trace 0|1 [--smoke] [--source-id TEXT]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      const std::string name = value();
      for (const WorkloadSpec& w : kWorkloads) {
        if (name == w.name) o.workload = &w;
      }
      if (o.workload == nullptr) usage(("unknown workload " + name).c_str());
    } else if (arg == "--seed") {
      const std::string v = value();
      char* end = nullptr;
      o.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0' || v[0] == '-') {
        usage("--seed takes a non-negative integer");
      }
    } else if (arg == "--seconds") {
      const std::string v = value();
      char* end = nullptr;
      o.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(o.seconds > 0.0) || !std::isfinite(o.seconds)) {
        usage("--seconds takes a positive number");
      }
    } else if (arg == "--trace") {
      const std::string t = value();
      if (t != "0" && t != "1") usage("--trace takes 0 or 1");
      o.trace = t == "1";
    } else if (arg == "--smoke") {
      o.smoke = true;
    } else if (arg == "--source-id") {
      o.source_id = value();
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (o.workload == nullptr) usage("--workload is required");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  const Kind kind = opt.workload->kind;
  const Sizes& sizes = opt.smoke ? kSmokeSizes : kFullSizes;
  const std::size_t draws = sizes.draws[static_cast<int>(kind)];

  // Cycle through the draws until the measured budget is spent. Each draw
  // runs at least twice untraced (--trace 0: its repeats are compared) or
  // once untraced and once traced (--trace 1). The hard cap keeps one
  // invocation well inside three minutes.
  const std::size_t min_per_draw = opt.smoke || opt.trace ? 1 : 2;
  constexpr double kHardCapSeconds = 140.0;
  constexpr std::size_t kMaxRepeats = 400;
  const Clock::time_point start = Clock::now();

  std::vector<Repeat> runs;
  std::vector<std::ptrdiff_t> reference(draws, -1);  ///< index into runs
  std::vector<std::size_t> untraced_per_draw(draws, 0);
  std::vector<std::string> failures;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  double probe_before = host_probe_seconds();
  auto one = [&](std::size_t draw, bool with_trace) {
    Repeat r;
    if (!bench::run_isolated(
            [&] {
              return run_repeat(kind, sizes, opt.seed, draw, with_trace);
            },
            r)) {
      r = Repeat{};
      r.traced = with_trace;
      r.draw = draw;
      copy_text(r.error, sizeof r.error, "repeat process crashed");
    }
    const double probe_after = host_probe_seconds();
    r.probe_s = 0.5 * (probe_before + probe_after);
    probe_before = probe_after;
    const Repeat* ref = reference[draw] < 0 ? nullptr : &runs[reference[draw]];
    const std::vector<std::string> fails = check_repeat(kind, r, ref);
    attempted += std::max<std::uint64_t>(r.issued, 1);
    if (!fails.empty()) {
      failed += std::max<std::uint64_t>(r.issued, 1);
      failures.insert(failures.end(), fails.begin(), fails.end());
    } else {
      failed += r.timed_out;
    }
    std::printf("%-11s draw %zu %s probe %.4fs run %.3fs (cpu %.3fs) "
                "setup %.4fs contacts/s %.0f deliveries %llu/%llu delay_p50 "
                "%.4f min forwardings/delivery %.3f rss %.1f MB%s\n",
                opt.workload->name, draw, with_trace ? "traced  " : "untraced",
                r.probe_s, r.run_s, r.user_cpu_s + r.sys_cpu_s, r.setup_s,
                ratio(processed(r), r.run_s),
                static_cast<unsigned long long>(r.deliveries),
                static_cast<unsigned long long>(r.expected), r.delay_p50_min,
                ratio(u(r.forwardings), delivered(r)),
                u(r.peak_rss_bytes) / (1 << 20),
                fails.empty() ? "" : "  CHECK FAILED");
    std::fflush(stdout);
    runs.push_back(r);
    if (reference[draw] < 0 && r.ok) {
      reference[draw] = static_cast<std::ptrdiff_t>(runs.size() - 1);
    }
    if (!with_trace) ++untraced_per_draw[draw];
  };

  for (std::size_t j = 0;; ++j) {
    const double elapsed = seconds_between(start, Clock::now());
    const bool covered =
        *std::min_element(untraced_per_draw.begin(),
                          untraced_per_draw.end()) >= min_per_draw;
    if (covered && (elapsed >= opt.seconds || elapsed >= kHardCapSeconds)) {
      break;
    }
    if (!failures.empty() || runs.size() >= kMaxRepeats) break;
    one(j % draws, false);
    if (opt.trace) one(j % draws, true);
  }

  Groups untraced(draws);
  Groups traced(draws);
  for (const Repeat& r : runs) {
    (r.traced ? traced : untraced)[r.draw].push_back(&r);
  }
  std::vector<Metric> metrics;
  if (opt.trace) {
    metrics = evaluate_all(kPerLayer, traced);
    metrics.push_back(
        {"bench.tracing_overhead_pct", "%",
         100.0 * (1.0 - ratio(evaluate(kContactsPerRefS, traced),
                              evaluate(kContactsPerRefS, untraced)))});
  } else {
    metrics = evaluate_all(kEndToEnd, untraced);
  }

  // Report line: provenance, every figure the workload's users see, and
  // the sample count behind every median and percentile.
  const bool correct = failures.empty();
  std::string checks = "[";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    checks += (i != 0 ? ", " : "") + json_string(failures[i]);
  }
  checks += "]";
  const Repeat& first = runs.front();
  std::uint64_t contact_samples = 0;
  for (const Repeat& r : runs) {
    if (r.traced) contact_samples = r.contact_samples;
  }
  const bool fleet = kind == Kind::kFleet;
  std::printf(
      "{\"report\": {\"workload\": %s, \"seed\": %llu, \"trace_seed\": %llu, "
      "\"draws\": %zu, \"seconds\": %s, \"trace\": %d, \"smoke\": %s, "
      "\"source\": %s, \"compiler\": %s, \"cpu\": %s, \"nproc\": %u, "
      "\"tcbf_kernel\": %s, \"reactor_backend\": %s, \"sim_threads\": %llu, "
      "\"reactor_threads\": %llu, \"repeats\": %zu, \"samples\": "
      "{\"per_draw_medians_over_repeats\": %zu, \"delivery_delays_per_draw\": "
      "%llu, \"contact_call_times_per_draw\": %llu}, \"workload_metrics\": %s, "
      "\"checks_failed\": %s}}\n",
      json_string(opt.workload->name).c_str(),
      static_cast<unsigned long long>(opt.seed),
      static_cast<unsigned long long>(kTraceSeed), draws,
      json_number(opt.seconds).c_str(), opt.trace ? 1 : 0,
      opt.smoke ? "true" : "false", json_string(opt.source_id).c_str(),
      json_string(compiler()).c_str(), json_string(cpu_model()).c_str(),
      std::thread::hardware_concurrency(), json_string(first.kernel).c_str(),
      json_string(fleet ? first.reactor : "none").c_str(),
      static_cast<unsigned long long>(fleet ? 0 : first.threads),
      static_cast<unsigned long long>(fleet ? first.threads : 0), runs.size(),
      *std::min_element(untraced_per_draw.begin(), untraced_per_draw.end()),
      static_cast<unsigned long long>(first.deliveries),
      static_cast<unsigned long long>(contact_samples),
      metrics_json(evaluate_all(workload_view(kind), untraced)).c_str(),
      checks.c_str());

  for (const std::string& f : failures) {
    std::fprintf(stderr, "check failed: %s\n", f.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              metrics_json(metrics).c_str());
  return correct ? 0 : 1;
}
