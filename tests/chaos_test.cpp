// Chaos testing: pseudo-random configurations drawn from the whole knob
// space.  Every generated configuration must either fail validation or
// simulate cleanly — conserve flits, drain, and produce sane statistics.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "sim/network.hpp"
#include "sim/sim_runner.hpp"
#include "stats_compare.hpp"
#include "topology/partition.hpp"

namespace dxbar {
namespace {

SimConfig random_config(std::uint64_t seed) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 1);
  SimConfig cfg;
  cfg.mesh_width = 2 + static_cast<int>(rng.below(7));   // 2..8
  cfg.mesh_height = 2 + static_cast<int>(rng.below(7));  // 2..8

  constexpr RouterDesign designs[] = {
      RouterDesign::FlitBless,  RouterDesign::Scarab,
      RouterDesign::Buffered4,  RouterDesign::Buffered8,
      RouterDesign::DXbar,      RouterDesign::UnifiedXbar,
      RouterDesign::BufferedVC, RouterDesign::Afc,
      RouterDesign::Damq,       RouterDesign::MinBD};
  cfg.design = designs[rng.below(10)];

  constexpr RoutingAlgo algos[] = {RoutingAlgo::DOR, RoutingAlgo::WestFirst,
                                   RoutingAlgo::NegativeFirst,
                                   RoutingAlgo::NorthLast};
  cfg.routing = algos[rng.below(4)];

  // Patterns with bit-permutation definitions need power-of-two node
  // counts; restrict those to compatible meshes.
  const bool pow2 =
      (cfg.num_nodes() & (cfg.num_nodes() - 1)) == 0;
  if (pow2 && rng.bernoulli(0.5)) {
    cfg.pattern = kAllPatterns[rng.below(kNumPatterns)];
  } else {
    constexpr TrafficPattern safe[] = {TrafficPattern::UniformRandom,
                                       TrafficPattern::NonUniformRandom,
                                       TrafficPattern::Transpose,
                                       TrafficPattern::Neighbor,
                                       TrafficPattern::Tornado};
    cfg.pattern = safe[rng.below(5)];
  }

  cfg.offered_load = 0.05 + 0.5 * rng.uniform();
  cfg.packet_length = 1 + static_cast<int>(rng.below(6));
  cfg.buffer_depth = 1 + static_cast<int>(rng.below(8));
  cfg.num_vcs = 1 + static_cast<int>(rng.below(2));
  cfg.fairness_threshold = 1 + static_cast<int>(rng.below(16));
  cfg.stall_escape_delay = 1 + static_cast<int>(rng.below(32));
  cfg.fault_fraction = rng.bernoulli(0.3) ? rng.uniform() : 0.0;
  if (rng.bernoulli(0.25)) cfg.link_fault_fraction = 0.2 * rng.uniform();
  if (rng.bernoulli(0.25)) cfg.torus = true;
  cfg.seed = seed;
  return cfg;
}

class ChaosTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosTest, RandomConfigValidatesOrSimulatesCleanly) {
  SimConfig cfg = random_config(GetParam());
  if (!cfg.validate().empty()) {
    // Invalid combinations must be *rejected*, never crash: fix the
    // offending knobs and retry so every chaos seed exercises a run.
    cfg.link_fault_fraction = 0.0;
    cfg.torus = false;
    if (cfg.design == RouterDesign::BufferedVC &&
        cfg.buffer_depth % cfg.num_vcs != 0) {
      cfg.num_vcs = 1;
    }
    ASSERT_EQ(cfg.validate(), "") << cfg.describe();
  }

  cfg.warmup_cycles = 0;
  cfg.measure_cycles = 400;
  Network net(cfg);
  const Mesh m(cfg.mesh_width, cfg.mesh_height);
  SyntheticWorkload w(cfg, m);
  net.set_workload(&w);
  for (Cycle t = 0; t < 400; ++t) net.step();
  w.set_injection_enabled(false);
  for (Cycle t = 0; t < 120000 && !net.idle(); ++t) net.step();

  ASSERT_TRUE(net.idle()) << cfg.describe();
  EXPECT_EQ(net.flits_created(), net.flits_delivered()) << cfg.describe();
  EXPECT_EQ(net.packets_created(), net.packets_delivered())
      << cfg.describe();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosTest, ::testing::Range<std::uint64_t>(1, 41),
                         [](const auto& info) {
                           return "c" + std::to_string(info.param);
                         });

// --- randomized-partition fuzz ----------------------------------------
//
// The shard-equivalence suite (determinism_test.cpp) covers the even
// row split the production path uses; this family drives *arbitrary*
// cut lines — including maximally unbalanced ones (a 1-row shard next
// to a 9-row shard) — across random designs, loads, and injected link
// faults, asserting flit conservation and bit-exact stats against the
// single-threaded run.  Any partition of the rows must be unobservable.

/// Open-loop run on an explicitly partitioned network, with the same
/// phase structure as run_open_loop.
RunStats run_with_partition(const SimConfig& cfg, const MeshPartition& part) {
  Network net(cfg, part);
  const Mesh m(cfg.mesh_width, cfg.mesh_height, cfg.torus);
  SyntheticWorkload w(cfg, m);
  net.set_workload(&w);
  const RunStats s = finish_open_loop(net, w);
  if (s.drained) {
    EXPECT_TRUE(net.idle()) << cfg.describe();
    EXPECT_EQ(net.flits_created(), net.flits_delivered()) << cfg.describe();
    EXPECT_EQ(net.packets_created(), net.packets_delivered())
        << cfg.describe();
    EXPECT_EQ(net.flit_pool_live(), 0u) << cfg.describe();
  }
  return s;
}

class ShardFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ShardFuzzTest, RandomPartitionIsBitExactAndConserving) {
  Rng rng(GetParam() * 0xD1B54A32D192ED03ULL + 5);

  SimConfig cfg;
  // Designs with a deflection escape valve, so random link faults are
  // always a valid combination.
  constexpr RouterDesign valve[] = {
      RouterDesign::FlitBless,   RouterDesign::Scarab, RouterDesign::DXbar,
      RouterDesign::UnifiedXbar, RouterDesign::Afc,    RouterDesign::MinBD};
  cfg.design = valve[rng.below(6)];
  cfg.mesh_width = 4 + static_cast<int>(rng.below(5));    // 4..8
  cfg.mesh_height = 4 + static_cast<int>(rng.below(7));   // 4..10
  cfg.offered_load = 0.05 + 0.35 * rng.uniform();
  cfg.packet_length = 1 + static_cast<int>(rng.below(5));
  if (rng.bernoulli(0.5)) cfg.link_fault_fraction = 0.15 * rng.uniform();
  if (rng.bernoulli(0.3)) {
    cfg.fault_fraction = rng.uniform();
    cfg.fault_onset_spread = 1 + rng.below(300);
  }
  cfg.warmup_cycles = 100;
  cfg.measure_cycles = 500;
  cfg.seed = GetParam();
  ASSERT_EQ(cfg.validate(), "") << cfg.describe();

  // Random interior cut lines: each row boundary becomes a cut with
  // p=0.4, yielding anywhere from one shard to one-per-row.
  const Mesh mesh(cfg.mesh_width, cfg.mesh_height);
  std::vector<int> cuts;
  for (int y = 1; y < cfg.mesh_height; ++y) {
    if (rng.bernoulli(0.4)) cuts.push_back(y);
  }
  const MeshPartition part = MeshPartition::from_row_cuts(mesh, cuts);

  const RunStats serial = run_open_loop(cfg);  // cfg.shards == 1
  const RunStats sharded = run_with_partition(cfg, part);
  SCOPED_TRACE("shards=" + std::to_string(part.shards()));
  EXPECT_TRUE(same_stats(serial, sharded)) << cfg.describe();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardFuzzTest,
                         ::testing::Range<std::uint64_t>(1, 25),
                         [](const auto& info) {
                           return "s" + std::to_string(info.param);
                         });

TEST(Describe, MentionsEveryHeadlineKnob) {
  SimConfig cfg;
  cfg.design = RouterDesign::UnifiedXbar;
  cfg.routing = RoutingAlgo::NorthLast;
  const std::string d = cfg.describe();
  EXPECT_NE(d.find("Unified Xbar"), std::string::npos);
  EXPECT_NE(d.find("NL"), std::string::npos);
  EXPECT_NE(d.find("8x8"), std::string::npos);
  EXPECT_NE(d.find("seed"), std::string::npos);
}

TEST(OnsetSpread, StaggeredFaultsStillConserve) {
  SimConfig cfg;
  cfg.design = RouterDesign::DXbar;
  cfg.fault_fraction = 1.0;
  cfg.fault_onset_spread = 500;  // faults appear throughout the run
  cfg.offered_load = 0.2;
  cfg.warmup_cycles = 0;
  cfg.measure_cycles = 800;

  Network net(cfg);
  const Mesh m(8, 8);
  SyntheticWorkload w(cfg, m);
  net.set_workload(&w);
  for (Cycle t = 0; t < 800; ++t) net.step();
  w.set_injection_enabled(false);
  for (Cycle t = 0; t < 60000 && !net.idle(); ++t) net.step();
  ASSERT_TRUE(net.idle());
  EXPECT_EQ(net.flits_created(), net.flits_delivered());
}

}  // namespace
}  // namespace dxbar
