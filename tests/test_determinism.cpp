// Determinism regression suite for the activity-driven cycle kernel.
//
// The kernel optimizations (activity worklists, SoA port state, the
// blocked Bernoulli source, the routable-head allocation skip) are only
// admissible because they leave per-seed behaviour bit-identical. This
// suite pins that property three ways:
//
//  1. Golden stats: the four perf_core matrix points must reproduce stat
//     digests captured from the pre-worklist full-scan implementation
//     (seed commit) exactly — including latency accumulators compared as
//     doubles with zero tolerance.
//  2. Replay: the same config+seed run twice yields byte-identical stats.
//  3. Thread-independence: run_load_sweep at 1 and 4 worker threads gives
//     identical per-point results (each point owns its RNGs; threads only
//     change scheduling).
//
// Per-mechanism goldens pin every routing mechanism on both escape-ring
// implementations, and the four-shard kernel at 1/2/4 threads: saturated
// (section 6) and burst-then-drain (section 7).
//
// Plus structural invariants after a drain: flow conservation, quiescence,
// and worklist consistency (Network::check_worklists).
#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "sim/network.hpp"
#include "traffic/generator.hpp"
#include "traffic/pattern.hpp"

namespace ofar {
namespace {

SimConfig matrix_config() {
  SimConfig cfg;
  cfg.h = 4;
  cfg.seed = 12345;
  cfg.routing = RoutingKind::kOfar;
  cfg.ring = RingKind::kPhysical;
  return cfg;
}

/// Flattened stat digest; every field a golden constant can pin.
struct Digest {
  u64 generated, injected, delivered, delivered_phits;
  double lat_sum, lat_sum_sq;
  u64 local_mis, global_mis, ring_in, ring_out;
  double mean_hops;
  u64 max_hops;
  bool drained;
};

Digest digest(const Network& net) {
  const Stats& s = net.stats();
  return {s.generated_packets(), s.injected_packets(), s.delivered_packets(),
          s.delivered_phits(),   s.latency().sum,      s.latency().sum_sq,
          s.local_misroutes(),   s.global_misroutes(), s.ring_entries(),
          s.ring_exits(),        s.mean_hops(),        s.max_hops(),
          net.drained()};
}

void expect_digest_eq(const Digest& a, const Digest& b) {
  EXPECT_EQ(a.generated, b.generated);
  EXPECT_EQ(a.injected, b.injected);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.delivered_phits, b.delivered_phits);
  // Bit-identical, not approximately equal: the accumulation order itself
  // is part of the determinism contract.
  EXPECT_EQ(a.lat_sum, b.lat_sum);
  EXPECT_EQ(a.lat_sum_sq, b.lat_sum_sq);
  EXPECT_EQ(a.local_mis, b.local_mis);
  EXPECT_EQ(a.global_mis, b.global_mis);
  EXPECT_EQ(a.ring_in, b.ring_in);
  EXPECT_EQ(a.ring_out, b.ring_out);
  EXPECT_EQ(a.mean_hops, b.mean_hops);
  EXPECT_EQ(a.max_hops, b.max_hops);
  EXPECT_EQ(a.drained, b.drained);
}

/// perf_core's "low" points: burst at `load` until cycle 2000, then drain
/// over a 40000-cycle horizon.
Digest run_low(const TrafficPattern& pattern, Network* keep = nullptr) {
  Network local(matrix_config());
  Network& net = keep ? *keep : local;
  std::vector<PhasedSource::Phase> phases(1);
  phases[0].pattern = pattern;
  phases[0].load_phits = 0.01;
  phases[0].until = 2000;
  net.set_traffic(std::make_unique<PhasedSource>(std::move(phases), 12345));
  net.run(40000);
  return digest(net);
}

/// perf_core's "sat" points: steady Bernoulli for 3000 cycles.
Digest run_sat(const TrafficPattern& pattern, double load) {
  Network net(matrix_config());
  net.set_traffic(std::make_unique<BernoulliSource>(pattern, load, 12345));
  net.run(3000);
  return digest(net);
}

// ---------------------------------------------------------------------------
// 1. Golden stats captured from the seed (pre-worklist) implementation.
//    Hex-float literals so the comparison is exact. Regenerate only if the
//    simulation *semantics* intentionally change; a mismatch after a pure
//    performance change means the optimization altered behaviour.
// ---------------------------------------------------------------------------

TEST(GoldenStats, UniformLowBurstDrain) {
  const Digest d = run_low(TrafficPattern::uniform());
  expect_digest_eq(d, {2667, 2667, 2667, 21336, 0x1.4db28p+18,
                       0x1.53af67p+25, 2, 0, 0, 0, 0x1.5c19b98b7877p+1, 4,
                       true});
}

TEST(GoldenStats, AdversarialLowBurstDrain) {
  const Digest d = run_low(TrafficPattern::adversarial(1));
  expect_digest_eq(d, {2667, 2667, 2667, 21336, 0x1.6476p+18, 0x1.8722f1p+25,
                       212, 98, 0, 0, 0x1.78b4751af8fe3p+1, 6, true});
}

TEST(GoldenStats, UniformSaturation) {
  const Digest d = run_sat(TrafficPattern::uniform(), 1.0);
  expect_digest_eq(d, {396316, 271080, 187507, 1500056, 0x1.168f1a4p+27,
                       0x1.18208ca9cp+37, 159776, 27060, 12262, 9931,
                       0x1.d37de6467d51cp+1, 32, false});
}

TEST(GoldenStats, AdversarialSaturation) {
  const Digest d = run_sat(TrafficPattern::adversarial(1), 0.7);
  expect_digest_eq(d, {277320, 184021, 92427, 739416, 0x1.9402fecp+26,
                       0x1.199a89e638p+37, 142220, 147991, 14964, 10268,
                       0x1.0a4501716b2b9p+2, 17, false});
}

// ---------------------------------------------------------------------------
// 2. Replay: identical config+seed twice -> identical stats.
// ---------------------------------------------------------------------------

TEST(Replay, SameSeedTwiceIsByteIdentical) {
  const Digest a = run_sat(TrafficPattern::adversarial(1), 0.7);
  const Digest b = run_sat(TrafficPattern::adversarial(1), 0.7);
  expect_digest_eq(a, b);
}

TEST(Replay, DifferentSeedDiverges) {
  SimConfig cfg = matrix_config();
  Network a(cfg);
  cfg.seed = 54321;
  Network b(cfg);
  a.set_traffic(std::make_unique<BernoulliSource>(TrafficPattern::uniform(),
                                                  0.3, 12345));
  b.set_traffic(std::make_unique<BernoulliSource>(TrafficPattern::uniform(),
                                                  0.3, 54321));
  a.run(3000);
  b.run(3000);
  EXPECT_NE(digest(a).lat_sum, digest(b).lat_sum);
}

// ---------------------------------------------------------------------------
// 3. Sweep results do not depend on the worker-thread count.
// ---------------------------------------------------------------------------

TEST(Replay, SweepThreadCountDoesNotChangeResults) {
  const SimConfig cfg = matrix_config();
  const std::vector<double> loads = {0.05, 0.2};
  RunParams params;
  params.warmup = 500;
  params.measure = 1000;
  const auto one =
      run_load_sweep(cfg, TrafficPattern::uniform(), loads, params, 1);
  const auto four =
      run_load_sweep(cfg, TrafficPattern::uniform(), loads, params, 4);
  ASSERT_EQ(one.size(), four.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    EXPECT_EQ(one[i].load, four[i].load);
    EXPECT_EQ(one[i].result.delivered_packets, four[i].result.delivered_packets);
    EXPECT_EQ(one[i].result.avg_latency, four[i].result.avg_latency);
    EXPECT_EQ(one[i].result.accepted_load, four[i].result.accepted_load);
    EXPECT_EQ(one[i].result.local_misroutes, four[i].result.local_misroutes);
    EXPECT_EQ(one[i].result.global_misroutes,
              four[i].result.global_misroutes);
  }
}

// ---------------------------------------------------------------------------
// 4. Structural invariants after a full drain.
// ---------------------------------------------------------------------------

TEST(Invariants, DrainedNetworkIsConsistent) {
  Network net(matrix_config());
  (void)run_low(TrafficPattern::uniform(), &net);
  ASSERT_TRUE(net.drained());
  EXPECT_TRUE(net.check_flow_conservation());
  EXPECT_TRUE(net.check_quiescent());
  EXPECT_TRUE(net.check_worklists());
}

TEST(Invariants, WorklistsConsistentMidFlight) {
  Network net(matrix_config());
  net.set_traffic(std::make_unique<BernoulliSource>(TrafficPattern::uniform(),
                                                    0.3, 12345));
  for (int chunk = 0; chunk < 20; ++chunk) {
    net.run(100);
    ASSERT_TRUE(net.check_flow_conservation());
    ASSERT_TRUE(net.check_worklists());
  }
}

// ---------------------------------------------------------------------------
// 5. Sharded cycle kernel (DESIGN.md §10). With sim_shards > 1 the staged
//    commit kernel is its own deterministic universe: its results differ
//    from sim_shards=1 (allocation/injection interleaving changes), but must
//    be bit-identical across every sim_threads value — the thread count is
//    pure execution policy. Test names contain "Thread" so the CI TSAN
//    job's --gtest_filter picks them up.
// ---------------------------------------------------------------------------

/// Small network (h=2: 36 routers, 72 nodes) so a saturated run stays fast.
SimConfig sharded_config(u32 shards, RingKind ring) {
  SimConfig cfg;
  cfg.h = 2;
  cfg.seed = 12345;
  cfg.routing = RoutingKind::kOfar;
  cfg.ring = ring;
  cfg.sim_shards = shards;
  return cfg;
}

Digest run_sharded_sat(const SimConfig& cfg, unsigned sim_threads,
                       const TrafficPattern& pattern, double load) {
  Network net(cfg);
  net.set_sim_threads(sim_threads);
  net.set_traffic(std::make_unique<BernoulliSource>(pattern, load, cfg.seed));
  net.run(3000);
  return digest(net);
}

TEST(ShardedKernel, SaturatedPhysicalRingIdenticalAcrossThreadCounts) {
  const SimConfig cfg = sharded_config(4, RingKind::kPhysical);
  const Digest one =
      run_sharded_sat(cfg, 1, TrafficPattern::adversarial(1), 0.7);
  // Saturated adversarial traffic exercises misroutes and the escape ring;
  // a commit ordered by thread arrival instead of shard index would diverge
  // here within a few cycles.
  expect_digest_eq(one,
                   run_sharded_sat(cfg, 2, TrafficPattern::adversarial(1),
                                   0.7));
  expect_digest_eq(one,
                   run_sharded_sat(cfg, 4, TrafficPattern::adversarial(1),
                                   0.7));
}

TEST(ShardedKernel, SaturatedEmbeddedRingIdenticalAcrossThreadCounts) {
  const SimConfig cfg = sharded_config(4, RingKind::kEmbedded);
  const Digest one =
      run_sharded_sat(cfg, 1, TrafficPattern::adversarial(1), 0.7);
  expect_digest_eq(one,
                   run_sharded_sat(cfg, 2, TrafficPattern::adversarial(1),
                                   0.7));
  expect_digest_eq(one,
                   run_sharded_sat(cfg, 4, TrafficPattern::adversarial(1),
                                   0.7));
}

TEST(ShardedKernel, UniformSaturationIdenticalAcrossThreadCounts) {
  const SimConfig cfg = sharded_config(4, RingKind::kPhysical);
  const Digest one = run_sharded_sat(cfg, 1, TrafficPattern::uniform(), 1.0);
  expect_digest_eq(one,
                   run_sharded_sat(cfg, 4, TrafficPattern::uniform(), 1.0));
}

TEST(ShardedKernel, GroupStraddlingShardBoundariesIdenticalAcrossThreads) {
  // 36 routers / 7 shards puts every shard boundary inside a group
  // (boundaries at routers 5,10,15,20,25,30; groups are 4 routers wide), so
  // intra-group traffic constantly crosses shards. Exercises cross-shard
  // event delivery far harder than group-aligned partitions.
  const SimConfig cfg = sharded_config(7, RingKind::kPhysical);
  const Digest one =
      run_sharded_sat(cfg, 1, TrafficPattern::adversarial(1), 0.7);
  expect_digest_eq(one,
                   run_sharded_sat(cfg, 2, TrafficPattern::adversarial(1),
                                   0.7));
  expect_digest_eq(one,
                   run_sharded_sat(cfg, 4, TrafficPattern::adversarial(1),
                                   0.7));
}

TEST(ShardedKernel, ReplayWithThreadsIsByteIdentical) {
  const SimConfig cfg = sharded_config(4, RingKind::kPhysical);
  const Digest a =
      run_sharded_sat(cfg, 4, TrafficPattern::adversarial(1), 0.7);
  const Digest b =
      run_sharded_sat(cfg, 4, TrafficPattern::adversarial(1), 0.7);
  expect_digest_eq(a, b);
}

TEST(ShardedKernel, DrainedShardedNetworkIsConsistentAcrossThreads) {
  // Burst then drain on the sharded kernel: structural invariants must hold
  // and the drained digest must match a single-threaded run.
  auto drain = [](unsigned sim_threads) {
    SimConfig cfg = sharded_config(4, RingKind::kPhysical);
    Network net(cfg);
    net.set_sim_threads(sim_threads);
    std::vector<PhasedSource::Phase> phases(1);
    phases[0].pattern = TrafficPattern::uniform();
    phases[0].load_phits = 0.05;
    phases[0].until = 1000;
    net.set_traffic(std::make_unique<PhasedSource>(std::move(phases), 12345));
    net.run(20000);
    EXPECT_TRUE(net.drained());
    EXPECT_TRUE(net.check_flow_conservation());
    EXPECT_TRUE(net.check_quiescent());
    EXPECT_TRUE(net.check_worklists());
    return digest(net);
  };
  expect_digest_eq(drain(1), drain(4));
}

// ---------------------------------------------------------------------------
// 6. Per-mechanism goldens. Every routing mechanism on both escape-ring
//    implementations, plus one OFAR point on the four-shard kernel pinned
//    at every worker-thread count. Short saturated runs keep the suite fast:
//    the physical-ring points run ADV+1 at 0.7 on h=2 for 2000 cycles, the
//    embedded-ring points uniform at 1.0 on h=3 for 1000 cycles. Same
//    regeneration rule as section 1.
// ---------------------------------------------------------------------------

struct MechanismGolden {
  RoutingKind routing;
  RingKind ring;
  Digest expect;
};

// Readable ctest names instead of gtest's byte dump of the parameter.
void PrintTo(const MechanismGolden& g, std::ostream* os) {
  *os << to_string(g.routing) << "/" << to_string(g.ring);
}

SimConfig mechanism_config(RoutingKind routing, RingKind ring, u32 shards) {
  SimConfig cfg;
  cfg.h = ring == RingKind::kPhysical ? 2 : 3;
  cfg.seed = 12345;
  cfg.routing = routing;
  cfg.ring = ring;
  cfg.sim_shards = shards;
  if (routing == RoutingKind::kPar) cfg.vcs_local = 4;
  return cfg;
}

Digest run_mechanism(RoutingKind routing, RingKind ring, u32 shards = 1,
                     unsigned sim_threads = 1) {
  const bool physical = ring == RingKind::kPhysical;
  const SimConfig cfg = mechanism_config(routing, ring, shards);
  Network net(cfg);
  net.set_sim_threads(sim_threads);
  net.set_traffic(std::make_unique<BernoulliSource>(
      physical ? TrafficPattern::adversarial(1) : TrafficPattern::uniform(),
      physical ? 0.7 : 1.0, cfg.seed));
  net.run(physical ? 2000 : 1000);
  return digest(net);
}

// Readable ctest names: "OFAR_L_physical" for OFAR-L on the physical ring.
std::string mechanism_test_name(
    const ::testing::TestParamInfo<MechanismGolden>& info) {
  std::string n = to_string(info.param.routing);
  for (auto& c : n)
    if (c == '-') c = '_';
  return n + "_" + to_string(info.param.ring);
}

class MechanismGoldenTest : public ::testing::TestWithParam<MechanismGolden> {
};

TEST_P(MechanismGoldenTest, SaturatedDigest) {
  const MechanismGolden& g = GetParam();
  expect_digest_eq(run_mechanism(g.routing, g.ring), g.expect);
}

constexpr RoutingKind kMin = RoutingKind::kMin;
constexpr RoutingKind kVal = RoutingKind::kVal;
constexpr RoutingKind kPb = RoutingKind::kPb;
constexpr RoutingKind kUgal = RoutingKind::kUgal;
constexpr RoutingKind kPar = RoutingKind::kPar;
constexpr RoutingKind kOfar = RoutingKind::kOfar;
constexpr RoutingKind kOfarL = RoutingKind::kOfarL;
constexpr RingKind kPhys = RingKind::kPhysical;
constexpr RingKind kEmb = RingKind::kEmbedded;

INSTANTIATE_TEST_SUITE_P(
    AllMechanisms, MechanismGoldenTest,
    ::testing::Values(
        MechanismGolden{kMin, kPhys,
                        {12657, 3157, 2020, 16160, 0x1.af05bp+20,
                         0x1.d1590074p+30, 0, 0, 0, 0, 0x1.2930288df0cacp+1,
                         3, false}},
        MechanismGolden{kVal, kPhys,
                        {12657, 8877, 6292, 50336, 0x1.db9928p+21,
                         0x1.4a962e6ap+31, 0, 0, 0, 0, 0x1.f1bd4624c7da4p+1,
                         5, false}},
        MechanismGolden{kPb, kPhys,
                        {12657, 9730, 7373, 58984, 0x1.dac728p+21,
                         0x1.25570746p+31, 0, 0, 0, 0, 0x1.d3784f2a1deep+1, 5,
                         false}},
        MechanismGolden{kUgal, kPhys,
                        {12657, 7400, 5887, 47096, 0x1.63454p+21,
                         0x1.fcd07a5p+30, 0, 0, 0, 0, 0x1.d1c0c59949728p+1, 5,
                         false}},
        MechanismGolden{kPar, kPhys,
                        {12657, 9038, 6595, 52760, 0x1.b6f6dp+21,
                         0x1.1d84bafp+31, 0, 0, 0, 0, 0x1.d272aa902adabp+1, 6,
                         false}},
        MechanismGolden{kOfar, kPhys,
                        {12657, 11911, 7161, 57288, 0x1.c9bd8p+21,
                         0x1.238d158cp+31, 7728, 7617, 2530, 2206,
                         0x1.06bf66b51afdap+2, 14, false}},
        MechanismGolden{kOfarL, kPhys,
                        {12657, 10887, 8487, 67896, 0x1.9793e8p+21,
                         0x1.9b485e14p+30, 0, 7017, 2479, 2280,
                         0x1.a1b5411032acdp+1, 8, false}},
        MechanismGolden{kMin, kEmb,
                        {42806, 34065, 23436, 187488, 0x1.915ee8p+22,
                         0x1.038e7cb8p+31, 0, 0, 0, 0, 0x1.44658b29e6eb8p+1,
                         3, false}},
        MechanismGolden{kVal, kEmb,
                        {42806, 26834, 12750, 102000, 0x1.5e9454p+22,
                         0x1.5cf86866p+31, 0, 0, 0, 0, 0x1.119bd949edc4dp+2,
                         5, false}},
        MechanismGolden{kPb, kEmb,
                        {42806, 31067, 18172, 145376, 0x1.60ac64p+22,
                         0x1.0971aae2p+31, 0, 0, 0, 0, 0x1.9b8c5e717d613p+1,
                         5, false}},
        MechanismGolden{kUgal, kEmb,
                        {42806, 33177, 21061, 168488, 0x1.963edcp+22,
                         0x1.27e3be7ap+31, 0, 0, 0, 0, 0x1.7a39ee78e532ap+1,
                         5, false}},
        MechanismGolden{kPar, kEmb,
                        {42806, 29171, 13286, 106288, 0x1.4ae6c8p+22,
                         0x1.3ea2025cp+31, 0, 0, 0, 0, 0x1.0e3fbd688ce4p+2, 6,
                         false}},
        MechanismGolden{kOfar, kEmb,
                        {42806, 36872, 22195, 177560, 0x1.7ec1a8p+22,
                         0x1.ff374dd8p+30, 12724, 2931, 2, 2,
                         0x1.83774c28ec4fbp+1, 8, false}},
        MechanismGolden{kOfarL, kEmb,
                        {42806, 42205, 23193, 185544, 0x1.6c313p+22,
                         0x1.c1b92cdp+30, 0, 8165, 1511, 1266,
                         0x1.4c8c178859a08p+1, 8, false}}),
    mechanism_test_name);

TEST(MechanismGolden, OfarFourShardsPinnedAtEveryThreadCount) {
  const Digest expect{12657, 11982, 7286, 58288, 0x1.de3cfp+21,
                      0x1.3616d0b4p+31, 7713, 7653, 2528, 2201,
                      0x1.064e905693263p+2, 14, false};
  for (const unsigned threads : {1u, 2u, 4u}) {
    SCOPED_TRACE(threads);
    expect_digest_eq(run_mechanism(kOfar, kPhys, 4, threads), expect);
  }
}

// ---------------------------------------------------------------------------
// 7. Per-mechanism burst-and-drain goldens. The saturated points above
//    never empty a router, so they leave the worklist prune, the idle-cycle
//    phase skips and the drained wheels unpinned. Here each mechanism takes
//    a short burst (physical ring: ADV+1 at 0.5 for 400 cycles on h=2;
//    embedded ring: uniform at 1.0 for 300 cycles on h=3) and then drains
//    completely within the 3000-cycle horizon. Same regeneration rule as
//    section 1.
// ---------------------------------------------------------------------------

Digest run_mechanism_drain(RoutingKind routing, RingKind ring,
                           u32 shards = 1, unsigned sim_threads = 1) {
  const bool physical = ring == RingKind::kPhysical;
  const SimConfig cfg = mechanism_config(routing, ring, shards);
  Network net(cfg);
  net.set_sim_threads(sim_threads);
  std::vector<PhasedSource::Phase> phases(1);
  phases[0].pattern =
      physical ? TrafficPattern::adversarial(1) : TrafficPattern::uniform();
  phases[0].load_phits = physical ? 0.5 : 1.0;
  phases[0].until = physical ? 400 : 300;
  net.set_traffic(std::make_unique<PhasedSource>(std::move(phases), cfg.seed));
  net.run(3000);
  EXPECT_TRUE(net.check_quiescent());
  EXPECT_TRUE(net.check_worklists());
  return digest(net);
}

class MechanismDrainGoldenTest
    : public ::testing::TestWithParam<MechanismGolden> {};

TEST_P(MechanismDrainGoldenTest, BurstDrainDigest) {
  const MechanismGolden& g = GetParam();
  expect_digest_eq(run_mechanism_drain(g.routing, g.ring), g.expect);
}

INSTANTIATE_TEST_SUITE_P(
    AllMechanisms, MechanismDrainGoldenTest,
    ::testing::Values(
        MechanismGolden{kMin, kPhys,
                        {1805, 1805, 1805, 14440, 0x1.51082p+20,
                         0x1.40adbc1p+30, 0, 0, 0, 0, 0x1.3f53896e7bf54p+1,
                         3, true}},
        MechanismGolden{kVal, kPhys,
                        {1805, 1805, 1805, 14440, 0x1.0c662p+19,
                         0x1.4adde22p+27, 0, 0, 0, 0, 0x1.f967ad2c1bcc6p+1,
                         5, true}},
        MechanismGolden{kPb, kPhys,
                        {1805, 1805, 1805, 14440, 0x1.c55p+18,
                         0x1.dc56648p+26, 0, 0, 0, 0, 0x1.d17af710980a3p+1,
                         5, true}},
        MechanismGolden{kUgal, kPhys,
                        {1805, 1805, 1805, 14440, 0x1.f0104p+18,
                         0x1.2ff2daep+27, 0, 0, 0, 0, 0x1.bb915fbbec24ep+1,
                         5, true}},
        MechanismGolden{kPar, kPhys,
                        {1805, 1805, 1805, 14440, 0x1.dd214p+18,
                         0x1.0da349ep+27, 0, 0, 0, 0, 0x1.fe4c4db8cd5e1p+1,
                         6, true}},
        MechanismGolden{kOfar, kPhys,
                        {1805, 1805, 1805, 14440, 0x1.b5a9p+18,
                         0x1.bfdacf8p+26, 1178, 1217, 58, 58,
                         0x1.f514480c7b1b6p+1, 8, true}},
        MechanismGolden{kOfarL, kPhys,
                        {1805, 1805, 1805, 14440, 0x1.fafe8p+18,
                         0x1.39f3f8cp+27, 0, 1051, 118, 118,
                         0x1.7a0b1006cec92p+1, 6, true}},
        MechanismGolden{kMin, kEmb,
                        {12966, 12966, 12966, 103728, 0x1.631088p+21,
                         0x1.613cfb28p+29, 0, 0, 0, 0, 0x1.492bcac533d9p+1,
                         3, true}},
        MechanismGolden{kVal, kEmb,
                        {12966, 12966, 12966, 103728, 0x1.656a04p+22,
                         0x1.608d332ap+31, 0, 0, 0, 0, 0x1.1a30ba62024a5p+2,
                         5, true}},
        MechanismGolden{kPb, kEmb,
                        {12966, 12966, 12966, 103728, 0x1.a33ba8p+21,
                         0x1.f82f63d8p+29, 0, 0, 0, 0, 0x1.9497ca9cc4557p+1,
                         5, true}},
        MechanismGolden{kUgal, kEmb,
                        {12966, 12966, 12966, 103728, 0x1.972dbp+21,
                         0x1.d769fa7p+29, 0, 0, 0, 0, 0x1.831c136d9432bp+1,
                         5, true}},
        MechanismGolden{kPar, kEmb,
                        {12966, 12966, 12966, 103728, 0x1.346e08p+22,
                         0x1.1198accp+31, 0, 0, 0, 0, 0x1.1c20106d4d6f9p+2,
                         6, true}},
        MechanismGolden{kOfar, kEmb,
                        {12966, 12966, 12966, 103728, 0x1.48c9dp+21,
                         0x1.2c69f3ap+29, 4373, 1343, 1, 1,
                         0x1.89bbd809cb01ep+1, 8, true}},
        MechanismGolden{kOfarL, kEmb,
                        {12966, 12966, 12966, 103728, 0x1.39115p+21,
                         0x1.11d613ep+29, 0, 1643, 57, 57,
                         0x1.5952550e922f2p+1, 9, true}}),
    mechanism_test_name);

TEST(MechanismDrainGolden, OfarFourShardsPinnedAtEveryThreadCount) {
  const Digest expect{1805, 1805, 1805, 14440, 0x1.b1dap+18,
                      0x1.b771a2p+26, 1209, 1222, 56, 56,
                      0x1.f7ea712dcf7eap+1, 8, true};
  for (const unsigned threads : {1u, 2u, 4u}) {
    SCOPED_TRACE(threads);
    expect_digest_eq(run_mechanism_drain(kOfar, kPhys, 4, threads), expect);
  }
}

}  // namespace
}  // namespace ofar
