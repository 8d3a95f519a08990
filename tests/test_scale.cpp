// Scale-path regression suite (DESIGN.md §"Scale").
//
// The million-endpoint work is only admissible if it changes *nothing*
// observable at paper scale:
//
//  1. Implicit arithmetic wiring must be indistinguishable from the
//     materialized-table reference (cfg.wiring_table) — pinned by digest
//     equality at h=4 across every routing mechanism.
//  2. Checkpoint/restart must resume bit-identically: save mid-run,
//     restore into a fresh network, and the continuation's stats equal an
//     uninterrupted run's — at every sim_threads split.
//  3. Lazy router construction must build only touched routers, and a
//     fully exercised network must still match eager behaviour (covered
//     by 1: the table path constructs eagerly).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "sim/network.hpp"
#include "traffic/generator.hpp"
#include "traffic/pattern.hpp"

namespace ofar {
namespace {

SimConfig scale_config(RoutingKind routing) {
  SimConfig cfg;
  cfg.h = 4;
  cfg.seed = 12345;
  cfg.routing = routing;
  cfg.ring = cfg.vc_ordered() ? RingKind::kNone : RingKind::kPhysical;
  if (routing == RoutingKind::kPar) cfg.vcs_local = 4;
  return cfg;
}

/// Flattened stat digest (same idiom as test_determinism.cpp): every field
/// compared exactly, doubles included.
struct Digest {
  u64 generated, injected, delivered, delivered_phits;
  double lat_sum, lat_sum_sq;
  u64 local_mis, global_mis, ring_in, ring_out;
  double mean_hops;
  u64 max_hops;
  Cycle now;
};

Digest digest(const Network& net) {
  const Stats& s = net.stats();
  return {s.generated_packets(), s.injected_packets(), s.delivered_packets(),
          s.delivered_phits(),   s.latency().sum,      s.latency().sum_sq,
          s.local_misroutes(),   s.global_misroutes(), s.ring_entries(),
          s.ring_exits(),        s.mean_hops(),        s.max_hops(),
          net.now()};
}

void expect_digest_eq(const Digest& a, const Digest& b) {
  EXPECT_EQ(a.generated, b.generated);
  EXPECT_EQ(a.injected, b.injected);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.delivered_phits, b.delivered_phits);
  // Bit-identical, not approximately equal: accumulation order is part of
  // the contract.
  EXPECT_EQ(a.lat_sum, b.lat_sum);
  EXPECT_EQ(a.lat_sum_sq, b.lat_sum_sq);
  EXPECT_EQ(a.local_mis, b.local_mis);
  EXPECT_EQ(a.global_mis, b.global_mis);
  EXPECT_EQ(a.ring_in, b.ring_in);
  EXPECT_EQ(a.ring_out, b.ring_out);
  EXPECT_EQ(a.mean_hops, b.mean_hops);
  EXPECT_EQ(a.max_hops, b.max_hops);
  EXPECT_EQ(a.now, b.now);
}

// ---------------------------------------------------------------------------
// 1. Implicit wiring == materialized table, every mechanism.
// ---------------------------------------------------------------------------

class WiringEquivalence : public ::testing::TestWithParam<RoutingKind> {};

TEST_P(WiringEquivalence, ImplicitMatchesTable) {
  Digest d[2];
  for (int table = 0; table < 2; ++table) {
    SimConfig cfg = scale_config(GetParam());
    cfg.wiring_table = table != 0;
    Network net(cfg);
    net.set_traffic(std::make_unique<BernoulliSource>(
        TrafficPattern::adversarial(1), 0.5, cfg.seed));
    net.run(2000);
    d[table] = digest(net);
  }
  expect_digest_eq(d[0], d[1]);
}

INSTANTIATE_TEST_SUITE_P(
    Mechanisms, WiringEquivalence,
    ::testing::Values(RoutingKind::kMin, RoutingKind::kVal, RoutingKind::kPb,
                      RoutingKind::kUgal, RoutingKind::kPar,
                      RoutingKind::kOfar, RoutingKind::kOfarL),
    [](const ::testing::TestParamInfo<RoutingKind>& info) {
      switch (info.param) {
        case RoutingKind::kMin: return "MIN";
        case RoutingKind::kVal: return "VAL";
        case RoutingKind::kPb: return "PB";
        case RoutingKind::kUgal: return "UGAL";
        case RoutingKind::kPar: return "PAR";
        case RoutingKind::kOfar: return "OFAR";
        case RoutingKind::kOfarL: return "OFAR_L";
      }
      return "unknown";
    });

// ---------------------------------------------------------------------------
// 2. Checkpoint/restart resumes bit-identically.
// ---------------------------------------------------------------------------

std::string ckpt_path(const char* tag) {
  return ::testing::TempDir() + "ofar_ckpt_" + tag + ".bin";
}

std::unique_ptr<TrafficSource> saturating_traffic(const SimConfig& cfg) {
  return std::make_unique<BernoulliSource>(TrafficPattern::uniform(), 0.9,
                                           cfg.seed);
}

class CheckpointRestart : public ::testing::TestWithParam<unsigned> {};

TEST_P(CheckpointRestart, MidRunSaveResumesBitIdentically) {
  const unsigned sim_threads = GetParam();
  const std::string path =
      ckpt_path(std::to_string(sim_threads).c_str());
  // Four shards: with one, set_sim_threads would clamp every split to one
  // thread, and the saved wheel slots would hold one shard's events only.
  SimConfig cfg = scale_config(RoutingKind::kOfar);
  cfg.sim_shards = 4;

  // Reference: uninterrupted run to 800 with a mid-flight save at 400.
  Network a(cfg);
  a.set_traffic(saturating_traffic(cfg));
  a.set_sim_threads(sim_threads);
  a.run(400);
  std::string err;
  ASSERT_TRUE(CheckpointIO::save(a, path, &err)) << err;
  a.run(400);
  const Digest ref = digest(a);

  // Resume: fresh same-config network picks up at cycle 400.
  Network b(cfg);
  b.set_traffic(saturating_traffic(cfg));
  b.set_sim_threads(sim_threads);
  ASSERT_TRUE(CheckpointIO::restore(b, path, &err)) << err;
  EXPECT_EQ(b.now(), Cycle{400});
  b.run(400);
  expect_digest_eq(digest(b), ref);

  EXPECT_TRUE(b.check_worklists());
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(SimThreads, CheckpointRestart,
                         ::testing::Values(1u, 2u, 4u));

TEST(CheckpointRestart, SaturatedAdversarialOfarResumesBitIdentically) {
  // OFAR past saturation under ADV+1: at the save, heads wait with cached
  // routing keys (InputPort::head_key) and routers hold several heads that
  // share a key, so the blocked-head memo is in use. Checkpoints do not
  // store keys — the restored network starts with none and recomputes
  // them on each head's next visit — so the continuation must still equal
  // the uninterrupted run.
  const std::string path = ckpt_path("adv");
  const SimConfig cfg = scale_config(RoutingKind::kOfar);
  auto adversarial = [&cfg] {
    return std::make_unique<BernoulliSource>(TrafficPattern::adversarial(1),
                                             0.7, cfg.seed);
  };
  Network a(cfg);
  a.set_traffic(adversarial());
  a.run(1000);

  u32 keyed = 0;        // routable heads carrying a key
  u32 shared_keys = 0;  // ... whose key an earlier head of the router has
  for (RouterId r = 0; r < a.topo().routers(); ++r) {
    if (!a.router_built(r)) continue;
    std::vector<u32> seen;
    for (const InputPort& port : a.router(r).inputs) {
      const HeadView in(port);
      for (VcId v = 0; v < in.num_vcs(); ++v) {
        if (!in.routable(v) || in.head_key(v) == 0) continue;
        ++keyed;
        for (const u32 k : seen) shared_keys += k == in.head_key(v) ? 1 : 0;
        seen.push_back(in.head_key(v));
      }
    }
  }
  EXPECT_GT(keyed, 0u);
  EXPECT_GT(shared_keys, 0u);

  std::string err;
  ASSERT_TRUE(CheckpointIO::save(a, path, &err)) << err;
  a.run(500);

  Network b(cfg);
  b.set_traffic(adversarial());
  ASSERT_TRUE(CheckpointIO::restore(b, path, &err)) << err;
  b.run(500);
  expect_digest_eq(digest(b), digest(a));
  EXPECT_GT(digest(a).local_mis + digest(a).global_mis, 0u);
  EXPECT_TRUE(b.check_worklists());
  std::remove(path.c_str());
}

TEST(CheckpointRestart, EveryMechanismRoundTrips) {
  // The policy/traffic save_state hooks differ per mechanism (Valiant lane
  // RNGs, Piggyback broadcast state, OFAR lanes); round-trip each one.
  for (const RoutingKind rk :
       {RoutingKind::kMin, RoutingKind::kVal, RoutingKind::kPb,
        RoutingKind::kUgal, RoutingKind::kPar, RoutingKind::kOfar,
        RoutingKind::kOfarL}) {
    const std::string path = ckpt_path("mech");
    const SimConfig cfg = scale_config(rk);
    Network a(cfg);
    a.set_traffic(saturating_traffic(cfg));
    a.run(300);
    std::string err;
    ASSERT_TRUE(CheckpointIO::save(a, path, &err)) << err;
    a.run(300);

    Network b(cfg);
    b.set_traffic(saturating_traffic(cfg));
    ASSERT_TRUE(CheckpointIO::restore(b, path, &err)) << err;
    b.run(300);
    expect_digest_eq(digest(b), digest(a));
    std::remove(path.c_str());
  }
}

TEST(CheckpointRestart, RejectsConfigMismatch) {
  const std::string path = ckpt_path("mismatch");
  const SimConfig cfg = scale_config(RoutingKind::kOfar);
  Network a(cfg);
  a.set_traffic(saturating_traffic(cfg));
  a.run(100);
  ASSERT_TRUE(CheckpointIO::save(a, path));

  // Different seed -> different signature -> refused.
  SimConfig other = cfg;
  other.seed = 999;
  Network b(other);
  b.set_traffic(saturating_traffic(other));
  std::string err;
  EXPECT_FALSE(CheckpointIO::restore(b, path, &err));
  EXPECT_FALSE(err.empty());
  std::remove(path.c_str());
}

TEST(CheckpointRestart, RejectsCorruptSeriesShape) {
  // A transient run's checkpoint carries its latency series. The restore
  // keeps the series the driver installed, so a saved shape that differs
  // from it must be a load error: a zero width would divide by zero on the
  // next delivery, and a wrong count would be allocated as given (one more
  // bucket than installed shows that without a huge allocation).
  const std::string path = ckpt_path("series");
  const SimConfig cfg = scale_config(RoutingKind::kOfar);
  constexpr Cycle kStart = 200;
  constexpr u32 kWidth = 50;
  constexpr u64 kBuckets = 12;
  Network a(cfg);
  a.stats().enable_timeseries(kStart, kBuckets * kWidth, kWidth);
  a.set_traffic(saturating_traffic(cfg));
  a.run(300);
  ASSERT_TRUE(CheckpointIO::save(a, path));

  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  // The series header: start u64, width u32, reserved u64 (0), count u64.
  std::string header(28, '\0');
  const u64 reserved = 0;
  std::memcpy(&header[0], &kStart, 8);
  std::memcpy(&header[8], &kWidth, 4);
  std::memcpy(&header[12], &reserved, 8);
  std::memcpy(&header[20], &kBuckets, 8);
  const std::size_t at = bytes.find(header);
  ASSERT_NE(at, std::string::npos);
  ASSERT_EQ(bytes.rfind(header), at);

  const auto restore_corrupted = [&](std::size_t offset, const void* value,
                                     std::size_t size) {
    std::string corrupt = bytes;
    std::memcpy(&corrupt[at + offset], value, size);
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(corrupt.data(), static_cast<std::streamsize>(corrupt.size()));
    }
    Network b(cfg);
    b.stats().enable_timeseries(kStart, kBuckets * kWidth, kWidth);
    b.set_traffic(saturating_traffic(cfg));
    std::string err;
    EXPECT_FALSE(CheckpointIO::restore(b, path, &err));
    EXPECT_EQ(err, "corrupt stats");
    // The installed series keeps its shape.
    EXPECT_EQ(b.stats().series()->bucket_width(), kWidth);
    EXPECT_EQ(b.stats().series()->num_buckets(), kBuckets);
  };
  const u32 zero_width = 0;
  restore_corrupted(8, &zero_width, sizeof zero_width);
  const u64 one_more = kBuckets + 1;
  restore_corrupted(20, &one_more, sizeof one_more);
  std::remove(path.c_str());
}

TEST(CheckpointRestart, MissingFileIsNotAnError) {
  const SimConfig cfg = scale_config(RoutingKind::kOfar);
  Network net(cfg);
  net.set_traffic(saturating_traffic(cfg));
  std::string err;
  EXPECT_FALSE(CheckpointIO::restore(
      net, ::testing::TempDir() + "ofar_no_such_ckpt.bin", &err));
  // The network is untouched: a cold start proceeds normally.
  EXPECT_EQ(net.now(), Cycle{0});
  net.run(64);
  EXPECT_EQ(net.now(), Cycle{64});
}

// ---------------------------------------------------------------------------
// 3. Lazy construction: only touched routers exist.
// ---------------------------------------------------------------------------

TEST(LazyConstruction, IdleNetworkBuildsNoRouters) {
  Network net(scale_config(RoutingKind::kOfar));
  EXPECT_EQ(net.built_router_count(), 0u);
  net.run(128);  // no traffic installed: nothing to build
  EXPECT_EQ(net.built_router_count(), 0u);
}

/// A handful of packets between two fixed nodes: minimal routing touches
/// only the l-g-l path, a few routers out of hundreds.
class SingleFlowSource : public TrafficSource {
 public:
  void tick(Network& net) override {
    if (sent_ < 8) {
      net.offer(/*src=*/0, /*dst=*/200, /*tag=*/0);
      ++sent_;
    }
  }

 private:
  u32 sent_ = 0;
};

TEST(LazyConstruction, SparseTrafficBuildsSparseRouters) {
  const SimConfig cfg = scale_config(RoutingKind::kMin);
  Network net(cfg);
  net.set_traffic(std::make_unique<SingleFlowSource>());
  net.run(2000);
  EXPECT_GT(net.built_router_count(), 0u);
  EXPECT_LT(net.built_router_count(), net.topo().routers() / 4);
  EXPECT_TRUE(net.drained());
}

}  // namespace
}  // namespace ofar
