// Benchmark driver for the OFAR simulator (see ofarbench/README.md).
//
// Runs one named workload in one of three modes and prints one JSON object
// on stdout. Everything is driven through the simulator's public API; the
// only instrumentation lives in this file.
//
//   e2e       untraced: kSetupSamples stand-alone set-ups, then one
//             repeat of {construct + set_traffic, warm-up run(),
//             Stats::reset + measured run(), checks}, each part timed.
//   timing    one repeat with every step timed: spans for topology build,
//             construction, warm-up steps, window steps and traffic ticks
//             (a TrafficSource decorator), kept in memory and written to
//             --spans-out at the end, plus per-cycle activity samples.
//   counting  one repeat with a tracer installed at sampling 1 that counts
//             grants by routing condition. Its times are only used to size
//             the tracing overhead.
//   calibrate one timed run of the host-speed calibration kernel
//             (calibrate.hpp), no simulation. A process of its own, so the
//             kernel's table does not count in a repeat's peak RSS.
//
// Every simulating mode runs the correctness checks after its window and
// prints a digest of the simulated statistics, so the caller can check that
// all modes (and any --threads value) simulate exactly the same thing.
#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include "calibrate.hpp"
#include "common/cli.hpp"
#include "sim/network.hpp"
#include "stats/sink.hpp"
#include "verify/wait_graph.hpp"
#include "topology/dragonfly.hpp"
#include "topology/hamiltonian.hpp"
#include "traffic/generator.hpp"

#ifndef OFARBENCH_BUILD_TYPE
#define OFARBENCH_BUILD_TYPE "unknown"
#endif
#ifndef OFARBENCH_OFAR_FAST
#define OFARBENCH_OFAR_FAST 0
#endif

namespace {

using namespace ofar;
using Clock = std::chrono::steady_clock;

struct Workload {
  std::string name;
  u32 h = 4;
  bool adversarial = false;  // ADV+1 when true, uniform otherwise
  double load = 0.0;         // offered phits/(node*cycle), Bernoulli
  u32 shards = 1;            // SimConfig::sim_shards (semantic)
  unsigned threads = 1;      // Network::set_sim_threads (execution only)
  Cycle warmup = 0;
  Cycle window = 0;
  // Longest a live packet may go without a grant at the end of the window
  // (0: no bound). Below saturation no packet waits much longer than one
  // global-link latency (100 cycles), so 400 flags a stall. Past
  // saturation the backlog grows without limit: on adv_sat the oldest of
  // ~93K live packets has waited ~2450 of the 3000 simulated cycles, and
  // that wait grows with run length, so there only the wait-cycle check
  // below applies.
  Cycle stall_bound = 0;
};

// Every window covers at least three global-link latencies (100 cycles).
const Workload kWorkloads[] = {
    {"adv_sat", 4, true, 0.7, 1, 1, 1'000, 2'000, 0},
    {"uniform_light", 4, false, 0.01, 1, 1, 2'000, 40'000, 400},
    {"big_h16", 16, false, 0.02, 8, 4, 300, 300, 400},
};
// Heads blocked this long take part in the wait-for graph
// (SimConfig::deadlock_timeout). Simulation-neutral: it only feeds the
// watchdog counter and verify::WaitGraph.
constexpr u32 kDeadlockTimeout = 400;
// Stand-alone set-ups timed per process, besides the one that is run.
constexpr u32 kSetupSamples = 5;

double secs(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double peak_rss_mb() {
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

// ---------------------------------------------------------------------------
// Spans: name, start, end and parent, kept in memory and written at the end.

class SpanLog {
 public:
  SpanLog() : origin_(Clock::now()) {}

  /// Opens a span now; returns its index for close().
  i64 open(u32 name, i64 parent = -1) {
    spans_.push_back({name, ns(Clock::now()), -1, parent});
    return static_cast<i64>(spans_.size()) - 1;
  }
  void close(i64 idx) { spans_[static_cast<size_t>(idx)].end = ns(Clock::now()); }
  void add(u32 name, Clock::time_point a, Clock::time_point b,
           i64 parent = -1) {
    spans_.push_back({name, ns(a), ns(b), parent});
  }

  /// Span that ticks recorded by TimedSource attach to (-1: none).
  i64 current = -1;

  void write(JsonWriter& w, const std::vector<std::string>& names) const {
    w.key("names").begin_array();
    for (const auto& n : names) w.value(n);
    w.end_array();
    w.key("spans").begin_array();
    for (const Span& s : spans_) {
      w.begin_array()
          .value(u64{s.name})
          .value(s.start)
          .value(s.end)
          .value(s.parent)
          .end_array();
    }
    w.end_array();
  }

 private:
  struct Span {
    u32 name;
    i64 start, end;  // ns since the log's origin
    i64 parent;      // index into spans_, -1 for a root
  };
  i64 ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// Span name ids, in the order of kSpanNames.
enum SpanName : u32 {
  kTopologyBuild,
  kSimSetup,
  kSimConstruct,
  kWarmupStep,
  kStatsReset,
  kStep,
  kTrafficTick,
  kVerifyCheck,
};
const std::vector<std::string> kSpanNames = {
    "topology.build",   "sim.setup",   "sim.construct", "sim.warmup_step",
    "stats.reset",      "sim.step",    "traffic.tick",  "verify.check"};

/// Traffic-layer timing decorator: forwards every TrafficSource hook to the
/// wrapped source and records each tick() as a child of log.current.
class TimedSource final : public TrafficSource {
 public:
  TimedSource(std::unique_ptr<TrafficSource> inner, SpanLog& log)
      : inner_(std::move(inner)), log_(log) {}
  void tick(Network& net) override {
    const auto t0 = Clock::now();
    inner_->tick(net);
    log_.add(kTrafficTick, t0, Clock::now(), log_.current);
  }
  bool finished() const override { return inner_->finished(); }
  void save_state(CkptWriter& w) const override { inner_->save_state(w); }
  void load_state(CkptReader& r) override { inner_->load_state(r); }

 private:
  std::unique_ptr<TrafficSource> inner_;
  SpanLog& log_;
};

// ---------------------------------------------------------------------------
// Simulation set-up, checks and digest.

SimConfig make_config(const Workload& w, u64 seed) {
  SimConfig cfg;
  cfg.h = w.h;
  cfg.seed = seed;
  cfg.routing = RoutingKind::kOfar;
  cfg.ring = RingKind::kPhysical;
  cfg.sim_shards = w.shards;
  cfg.deadlock_timeout = kDeadlockTimeout;
  return cfg;
}

std::unique_ptr<TrafficSource> make_source(const Workload& w, u64 seed) {
  return std::make_unique<BernoulliSource>(
      w.adversarial ? TrafficPattern::adversarial(1)
                    : TrafficPattern::uniform(),
      w.load, seed);
}

struct CheckResult {
  const char* name;
  bool ok;
};

/// Longest time any live packet has gone without a grant (cycles). The
/// simulator's watchdog (Stats::stalled_packets) only runs every 4096
/// cycles, which adv_sat and big_h16 never reach, so the benchmark walks
/// the packets itself.
u64 max_wait(const Network& net) {
  u64 worst = 0;
  net.packets().for_each_live([&](PacketId, const Packet& pkt) {
    worst = std::max(worst, net.now() - pkt.last_progress);
  });
  return worst;
}

/// True when heads blocked longer than kDeadlockTimeout wait on each other
/// in a cycle that lies entirely inside escape-ring VCs: the one wait cycle
/// bubble flow control rules out (paper §IV-C, verify/wait_graph.hpp).
bool ring_deadlock(const Network& net) {
  verify::WaitGraph graph(net);
  graph.build();
  return !graph.find_ring_cycle().empty();
}

/// End-of-window correctness checks (between steps, outside timed windows).
std::vector<CheckResult> run_checks(const Network& net, const Workload& wl) {
  const Stats& s = net.stats();
  return {
      {"no_stalled_packets",
       wl.stall_bound == 0 || max_wait(net) <= wl.stall_bound},
      {"no_ring_deadlock", !ring_deadlock(net)},
      {"flow_conservation", net.check_flow_conservation()},
      {"worklists", net.check_worklists()},
      {"live_packets_balance",
       net.injected_total() - net.delivered_total() ==
           net.packets().live_count()},
      {"window_delivered", s.delivered_packets() > 0},
  };
}

/// FNV-1a over every simulated statistic of the window plus the lifetime
/// packet totals: equal digests mean the runs simulated the same thing.
std::string digest(const Network& net) {
  const Stats& s = net.stats();
  u64 h = 0xcbf29ce484222325ull;
  auto mix = [&h](u64 v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  auto mixd = [&mix](double v) { mix(std::bit_cast<u64>(v)); };
  mix(net.now());
  mix(s.generated_packets());
  mix(s.generated_phits());
  mix(s.injected_packets());
  mix(s.delivered_packets());
  mix(s.delivered_phits());
  mixd(s.latency().sum);
  mixd(s.latency().sum_sq);
  mix(s.latency().min);
  mix(s.latency().max);
  mix(s.local_misroutes());
  mix(s.global_misroutes());
  mix(s.ring_entries());
  mix(s.ring_exits());
  mix(s.ring_packets());
  mixd(s.mean_hops());
  mix(s.max_hops());
  for (u32 b = 0; b < LatencyHistogram::kBuckets; ++b)
    mix(s.latency_histogram().bucket_count(b));
  mix(net.injected_total());
  mix(net.delivered_total());
  mix(net.packets().live_count());
  mix(net.pending_offers());
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

/// q-quantile of the latency histogram, interpolated linearly inside the
/// power-of-two bucket that holds the rank. LatencyHistogram::percentile
/// returns the bucket midpoint, which stays put until p99 crosses a power
/// of two and then doubles: too coarse for a 0.1 bound.
double histogram_quantile(const LatencyHistogram& hist, double q) {
  if (hist.total() == 0) return 0.0;
  const double rank = q * static_cast<double>(hist.total() - 1);
  u64 seen = 0;
  for (u32 b = 0; b < LatencyHistogram::kBuckets; ++b) {
    const u64 c = hist.bucket_count(b);
    if (c == 0) continue;
    if (static_cast<double>(seen + c) > rank) {
      const double lo = static_cast<double>(LatencyHistogram::bucket_floor(b));
      const double hi =
          b + 1 < LatencyHistogram::kBuckets
              ? static_cast<double>(LatencyHistogram::bucket_floor(b + 1))
              : lo;
      const double frac = (rank - static_cast<double>(seen) + 0.5) /
                          static_cast<double>(c);
      return lo + std::clamp(frac, 0.0, 1.0) * (hi - lo);
    }
    seen += c;
  }
  return static_cast<double>(
      LatencyHistogram::bucket_floor(LatencyHistogram::kBuckets - 1));
}

void write_sim_stats(JsonWriter& w, const Network& net, const Workload& wl) {
  const Stats& s = net.stats();
  w.key("sim").begin_object()
      .key("window_cycles").value(u64{wl.window})
      .key("accepted_load")
      .value(s.accepted_load(net.now(), net.topo().nodes()))
      .key("latency_mean_cycles").value(s.latency().mean())
      .key("latency_p99_cycles")
      .value(histogram_quantile(s.latency_histogram(), 0.99))
      .key("latency_samples").value(s.latency_histogram().total())
      .key("generated_packets").value(s.generated_packets())
      .key("delivered_packets").value(s.delivered_packets())
      .key("delivered_phits").value(s.delivered_phits())
      .key("mean_hops").value(s.mean_hops())
      .key("ring_use_fraction").value(s.ring_use_fraction())
      .end_object();
}

/// Runs the checks, timed, and writes them plus the digest into `w`.
void write_checks(JsonWriter& w, const Network& net, const Workload& wl,
                  SpanLog* log = nullptr) {
  const auto t0 = Clock::now();
  const std::vector<CheckResult> checks = run_checks(net, wl);
  const auto t1 = Clock::now();
  if (log != nullptr) log->add(kVerifyCheck, t0, t1);
  w.key("check_s").value(secs(t0, t1));
  w.key("max_wait_cycles").value(max_wait(net));
  w.key("failed_checks").begin_array();
  for (const CheckResult& c : checks)
    if (!c.ok) w.value(c.name);
  w.end_array();
  w.key("digest").value(digest(net));
}

// ---------------------------------------------------------------------------
// Modes.

void run_e2e(JsonWriter& w, const Workload& wl, u64 seed) {
  const SimConfig cfg = make_config(wl, seed);
  // Stand-alone set-up samples (construct + install, then destroy untimed):
  // set-up is short next to the run, so it gets several samples.
  w.key("setup_samples_s").begin_array();
  for (u32 i = 0; i < kSetupSamples; ++i) {
    const auto t0 = Clock::now();
    auto net = std::make_unique<Network>(cfg);
    net->set_sim_threads(wl.threads);
    net->set_traffic(make_source(wl, seed));
    w.value(secs(t0, Clock::now()));
  }
  w.end_array();
  const auto t0 = Clock::now();
  Network net(cfg);
  net.set_sim_threads(wl.threads);
  net.set_traffic(make_source(wl, seed));
  const auto t1 = Clock::now();
  w.key("setup_s").value(secs(t0, t1));
  net.run(wl.warmup);
  const auto t2 = Clock::now();
  w.key("warmup_s").value(secs(t1, t2));
  net.stats().reset(net.now());
  const auto t3 = Clock::now();
  net.run(wl.window);
  const auto t4 = Clock::now();
  w.key("window_s").value(secs(t3, t4));
  write_sim_stats(w, net, wl);
  write_checks(w, net, wl);
}

void run_timing(JsonWriter& w, const Workload& wl, u64 seed,
                const std::string& spans_out) {
  const SimConfig cfg = make_config(wl, seed);
  SpanLog log;
  for (u32 i = 0; i < kSetupSamples; ++i) {
    const auto t0 = Clock::now();
    auto topo = std::make_unique<Dragonfly>(cfg.h, cfg.groups, true);
    auto ring = std::make_unique<HamiltonianRing>(*topo);
    log.add(kTopologyBuild, t0, Clock::now());
  }
  std::unique_ptr<Network> net;
  for (u32 i = 0; i < kSetupSamples; ++i) {
    net.reset();
    const i64 setup = log.open(kSimSetup);
    const i64 construct = log.open(kSimConstruct, setup);
    net = std::make_unique<Network>(cfg);
    log.close(construct);
    net->set_sim_threads(wl.threads);
    net->set_traffic(
        std::make_unique<TimedSource>(make_source(wl, seed), log));
    log.close(setup);
  }
  for (Cycle c = 0; c < wl.warmup; ++c) {
    log.current = log.open(kWarmupStep);
    net->step();
    log.close(log.current);
  }
  log.current = -1;
  const u64 built_after_warmup = net->built_router_count();
  {
    const i64 reset = log.open(kStatsReset);
    net->stats().reset(net->now());
    log.close(reset);
  }
  double active_routers = 0, active_nodes = 0, live_packets = 0;
  for (Cycle c = 0; c < wl.window; ++c) {
    log.current = log.open(kStep);
    net->step();
    log.close(log.current);
    active_routers += static_cast<double>(net->active_router_count());
    active_nodes += static_cast<double>(net->active_node_count());
    live_packets += static_cast<double>(net->packets().live_count());
  }
  log.current = -1;
  const double n = static_cast<double>(wl.window);
  w.key("counters").begin_object()
      .key("built_routers").value(built_after_warmup)
      .key("active_routers_mean").value(active_routers / n)
      .key("active_nodes_mean").value(active_nodes / n)
      .key("live_packets_mean").value(live_packets / n)
      .key("pending_offers_end").value(net->pending_offers())
      .end_object();
  write_sim_stats(w, *net, wl);
  write_checks(w, *net, wl, &log);

  if (!spans_out.empty()) {
    JsonWriter sw;
    sw.begin_object().key("workload").value(wl.name).key("seed").value(seed);
    log.write(sw, kSpanNames);
    sw.end_object();
    std::FILE* f = std::fopen(spans_out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "ofarbench: cannot write %s\n", spans_out.c_str());
      std::exit(1);
    }
    std::fputs(sw.str().c_str(), f);
    std::fputc('\n', f);
    std::fclose(f);
  }
}

void run_counting(JsonWriter& w, const Workload& wl, u64 seed) {
  constexpr u32 kConditions = static_cast<u32>(RouteCondition::kWaitStarved) + 1;
  std::array<u64, kConditions> by_condition{};
  u64 grants = 0, wait_sum = 0;
  bool counting = false;
  Network net(make_config(wl, seed));
  net.set_sim_threads(wl.threads);
  net.set_traffic(make_source(wl, seed));
  net.set_trace_sampling(1);
  net.set_tracer([&](const TraceEvent& ev) {
    if (!counting || ev.kind != TraceEvent::Kind::kGrant) return;
    ++grants;
    ++by_condition[static_cast<u32>(ev.prov.condition)];
    wait_sum += ev.queue_wait;
  });
  net.run(wl.warmup);
  net.stats().reset(net.now());
  counting = true;
  const auto t0 = Clock::now();
  net.run(wl.window);
  const auto t1 = Clock::now();
  counting = false;
  w.key("window_s").value(secs(t0, t1));
  w.key("counters").begin_object();
  w.key("grants").value(grants).key("queue_wait_sum").value(wait_sum);
  w.key("by_condition").begin_object();
  for (u32 c = 0; c < kConditions; ++c)
    w.key(to_string(static_cast<RouteCondition>(c))).value(by_condition[c]);
  w.end_object().end_object();
  write_sim_stats(w, net, wl);
  write_checks(w, net, wl);
}

}  // namespace

int main(int argc, char** argv) {
  CommandLine cli(argc, argv);
  const std::string name = cli.get_string("workload", "");
  const std::string mode = cli.get_string("mode", "e2e");
  const u64 seed = cli.get_uint("seed", 1);
  const std::string spans_out = cli.get_string("spans-out", "");
  // Overrides for the self-test (small topologies, short windows) and for
  // the single-thread pass of the sharded workload.
  const u64 h = cli.get_uint("h", 0);
  const u64 warmup = cli.get_uint("warmup", 0);
  const u64 window = cli.get_uint("window", 0);
  const u64 threads = cli.get_uint("threads", 0);
  for (const auto& key : cli.unused_keys()) {
    std::fprintf(stderr, "ofarbench: unknown option --%s\n", key.c_str());
    return 1;
  }
#ifndef NDEBUG
  // A checked build runs the OFAR_DCHECK invariants on hot paths and is
  // ~10-15% slower; its numbers would read as a regression.
  std::fprintf(stderr,
               "ofarbench: refusing to report from a checked build (NDEBUG "
               "not set); configure with -DOFAR_FAST=ON\n");
  return 3;
#endif

  const Workload* found = nullptr;
  for (const Workload& w : kWorkloads)
    if (w.name == name) found = &w;
  if (found == nullptr) {
    std::fprintf(stderr, "ofarbench: unknown --workload '%s'\n", name.c_str());
    return 1;
  }
  Workload wl = *found;
  if (h != 0) wl.h = static_cast<u32>(h);
  if (warmup != 0) wl.warmup = warmup;
  if (window != 0) wl.window = window;
  if (wl.window == 0) {
    std::fprintf(stderr, "ofarbench: the window must not be empty\n");
    return 1;
  }
  if (threads != 0) wl.threads = static_cast<unsigned>(threads);

  JsonWriter w;
  w.begin_object();
  w.key("mode").value(mode);
  w.key("workload").begin_object()
      .key("name").value(wl.name)
      .key("h").value(u64{wl.h})
      .key("pattern").value(wl.adversarial ? "adv+1" : "uniform")
      .key("load").value(wl.load)
      .key("routing").value("OFAR")
      .key("ring").value("physical")
      .key("sim_shards").value(u64{wl.shards})
      .key("sim_threads").value(u64{wl.threads})
      .key("warmup_cycles").value(u64{wl.warmup})
      .key("window_cycles").value(u64{wl.window})
      .key("seed").value(seed)
      .end_object();
  w.key("build").begin_object()
      .key("build_type").value(OFARBENCH_BUILD_TYPE)
#ifdef NDEBUG
      .key("ndebug").value(true)
#else
      .key("ndebug").value(false)
#endif
      .key("ofar_fast").value(OFARBENCH_OFAR_FAST != 0)
      .key("nproc").value(u64{std::thread::hardware_concurrency()})
      .end_object();
  if (mode == "e2e") {
    run_e2e(w, wl, seed);
  } else if (mode == "timing") {
    run_timing(w, wl, seed, spans_out);
  } else if (mode == "counting") {
    run_counting(w, wl, seed);
  } else if (mode == "calibrate") {
    const ofarbench::Calibration c = ofarbench::calibrate();
    w.key("calib_s").value(c.seconds);
    w.key("calib_ok").value(c.checksum == ofarbench::kCalibrationChecksum);
  } else {
    std::fprintf(stderr, "ofarbench: unknown --mode '%s'\n", mode.c_str());
    return 1;
  }
  w.key("peak_rss_mb").value(peak_rss_mb());
  w.end_object();
  std::puts(w.str().c_str());
  return 0;
}
