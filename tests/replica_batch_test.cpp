// The replica sweep's contract: run_sweep simulates each dynamics class
// once (configs equal up to the pricing-only tech_node / flit_bits),
// warms each group of representatives that share a warmup once, forks
// every member from the warm snapshot, and prices the other class
// members from the representative's event counts.  Each result's
// RunStats are byte-for-byte those of a plain run_open_loop of its
// config — across all router designs (the SCARAB NACK network
// included), fault plans, closed-loop clients, sharded configs, and
// groups that mix loads and measurement seeds.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "sim/replica_batch.hpp"
#include "sim/sim_runner.hpp"
#include "sim/sweep.hpp"
#include "snapshot/serialize.hpp"
#include "snapshot/snapshot.hpp"
#include "stats_compare.hpp"
#include "traffic/traffic_gen.hpp"

namespace dxbar {
namespace {

SimConfig small_cfg(RouterDesign design) {
  SimConfig cfg;
  cfg.design = design;
  cfg.mesh_width = 4;
  cfg.mesh_height = 4;
  cfg.warmup_cycles = 200;
  cfg.measure_cycles = 600;
  cfg.drain_cycles = 2000;
  cfg.offered_load = 0.25;
  cfg.seed = 7;
  return cfg;
}

/// The warm state run_sweep forks from: `cfg` advanced to its warmup
/// boundary, saved by save_open_loop_state.
std::vector<std::uint8_t> warm_snapshot(const SimConfig& cfg) {
  Network net(cfg);
  SyntheticWorkload wl(cfg, net.mesh());
  net.set_workload(&wl);
  advance_open_loop(net, cfg.warmup_cycles);
  SnapshotWriter w;
  save_open_loop_state(w, net, wl);
  return w.take();
}

/// Runs `configs` through run_sweep, requires that every config was
/// forked from a shared warmup (none ran cold), and compares each result
/// byte-exactly against a solo run_open_loop of the same config.
SweepReport expect_forks_match_cold(const std::vector<SimConfig>& configs) {
  SweepReport report;
  const std::vector<RunStats> forked = run_sweep(configs, 2, nullptr, &report);
  EXPECT_EQ(report.warm_points(), configs.size());
  EXPECT_EQ(report.cold_points, 0u);
  EXPECT_EQ(forked.size(), configs.size());
  for (std::size_t i = 0; i < configs.size() && i < forked.size(); ++i) {
    SCOPED_TRACE("replica " + std::to_string(i));
    EXPECT_EQ(stats_bytes(forked[i]), stats_bytes(run_open_loop(configs[i])));
  }
  return report;
}

// --- forked replicas vs cold runs --------------------------------------

class BatchDesignTest : public ::testing::TestWithParam<RouterDesign> {};

TEST_P(BatchDesignTest, TwoSeedLanesMatchSerial) {
  // Seed replication: identical configs up to measure_seed share one
  // warmup without any warmup_load pin.
  std::vector<SimConfig> configs(2, small_cfg(GetParam()));
  configs[1].measure_seed = 0xDEADBEEFULL;
  const SweepReport report = expect_forks_match_cold(configs);
  EXPECT_EQ(report.groups.size(), 1u);
}

TEST_P(BatchDesignTest, EightMixedLanesMatchSerial) {
  // One group mixing measurement seeds AND offered loads (a pinned
  // warmup_load makes the warmup load-independent), so the replicas
  // finish their drains at different cycles.
  std::vector<SimConfig> configs(8, small_cfg(GetParam()));
  for (std::size_t i = 0; i < configs.size(); ++i) {
    configs[i].warmup_load = 0.2;
    configs[i].measure_seed = i == 0 ? 0 : 1000 + 77 * i;
    configs[i].offered_load = 0.10 + 0.05 * static_cast<double>(i % 4);
  }
  const SweepReport report = expect_forks_match_cold(configs);
  ASSERT_EQ(report.groups.size(), 1u);
  EXPECT_EQ(report.groups[0].size(), configs.size());
}

INSTANTIATE_TEST_SUITE_P(
    Designs, BatchDesignTest,
    ::testing::Values(RouterDesign::DXbar, RouterDesign::FlitBless,
                      RouterDesign::Buffered4, RouterDesign::Buffered8,
                      RouterDesign::BufferedVC, RouterDesign::Scarab,
                      RouterDesign::UnifiedXbar, RouterDesign::Afc,
                      RouterDesign::Damq, RouterDesign::MinBD),
    [](const ::testing::TestParamInfo<RouterDesign>& info) {
      std::string name(to_string(info.param));
      for (char& c : name) {
        if (c == '-' || c == ' ') c = '_';
      }
      return name;
    });

TEST(ReplicaBatchTest, FaultPlanLanesMatchSerial) {
  for (const RouterDesign design :
       {RouterDesign::DXbar, RouterDesign::UnifiedXbar, RouterDesign::Scarab}) {
    SCOPED_TRACE(std::string(to_string(design)));
    std::vector<SimConfig> configs(3, small_cfg(design));
    for (std::size_t i = 0; i < configs.size(); ++i) {
      configs[i].fault_fraction = 0.5;
      configs[i].fault_onset_spread = 300;
      configs[i].measure_seed = 31 * i;
    }
    expect_forks_match_cold(configs);
  }
}

TEST(ReplicaBatchTest, RandomizedLaneFuzzMatchesSerial) {
  // Deterministic fuzz: random design / replica count / per-replica
  // loads, seeds and measurement seeds, always checked against the cold
  // twin.  Seeds are structural, so one call forms several groups.
  constexpr RouterDesign kDesigns[] = {
      RouterDesign::DXbar, RouterDesign::FlitBless, RouterDesign::Buffered8,
      RouterDesign::Scarab, RouterDesign::BufferedVC};
  SplitMix64 rng(20260808);
  for (int round = 0; round < 5; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const RouterDesign design = kDesigns[rng.next() % std::size(kDesigns)];
    const std::size_t replicas = 2 + rng.next() % 5;
    std::vector<SimConfig> configs;
    for (std::size_t i = 0; i < replicas; ++i) {
      SimConfig cfg = small_cfg(design);
      cfg.measure_cycles = 400;
      cfg.warmup_load = 0.1;
      cfg.seed = 1 + rng.next() % 4;  // let some replicas share whole streams
      cfg.measure_seed = rng.next() % 3 == 0 ? 0 : rng.next();
      cfg.offered_load =
          0.05 + 0.01 * static_cast<double>(rng.next() % 30);
      configs.push_back(cfg);
    }
    expect_forks_match_cold(configs);
  }
}

// --- warm snapshot interplay -------------------------------------------

TEST(ReplicaBatchTest, WarmForkedLanesMatchColdSerialRuns) {
  // One warmup execution, snapshotted and handed to the sweep through
  // the cache; K measure_seed replicas forked from it must equal the
  // cold straight-through run of each replica config.  This is the claim
  // that makes `--seeds N` cost one warmup: the reseed sits after the
  // snapshot point.
  const SimConfig base = small_cfg(RouterDesign::DXbar);
  std::vector<SimConfig> configs(4, base);
  for (std::size_t i = 1; i < configs.size(); ++i) {
    configs[i].measure_seed = 0x9E37 + i;
  }
  WarmupCache cache;
  (void)cache.insert(warmup_signature(base), warm_snapshot(base));

  SweepReport report;
  const auto forked = run_sweep(configs, 2, &cache, &report);
  EXPECT_EQ(report.cache_hits, 1u);
  EXPECT_EQ(report.cache_misses, 0u);
  ASSERT_EQ(forked.size(), configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    SCOPED_TRACE("replica " + std::to_string(i));
    EXPECT_EQ(stats_bytes(forked[i]), stats_bytes(run_open_loop(configs[i])));
  }
}

TEST(ReplicaBatchTest, ForksRunFromTheWarmSnapshot) {
  // A snapshot of a different warmup (another warmup rate, same
  // structure) planted under the group's key must change the results:
  // members really resume from the snapshot bytes rather than rerunning
  // their own warmup.
  const SimConfig base = small_cfg(RouterDesign::DXbar);
  std::vector<SimConfig> configs(2, base);
  configs[1].measure_seed = 5;
  SimConfig other = base;
  other.offered_load = 0.05;
  WarmupCache cache;
  (void)cache.insert(warmup_signature(base), warm_snapshot(other));

  const auto forked = run_sweep(configs, 1, &cache);
  ASSERT_EQ(forked.size(), configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    EXPECT_NE(stats_bytes(forked[i]), stats_bytes(run_open_loop(configs[i])));
  }
}

TEST(ReplicaBatchTest, MeasureSeedZeroAndNonzeroDiverge) {
  SimConfig a = small_cfg(RouterDesign::DXbar);
  SimConfig b = a;
  b.measure_seed = 12345;
  EXPECT_NE(stats_bytes(run_open_loop(a)), stats_bytes(run_open_loop(b)));
  // ... and the same measure_seed is fully deterministic.
  EXPECT_EQ(stats_bytes(run_open_loop(b)), stats_bytes(run_open_loop(b)));
}

TEST(ReplicaBatchTest, MeasureSeedSurvivesConfigSnapshotRoundtrip) {
  SimConfig cfg = small_cfg(RouterDesign::Buffered4);
  cfg.measure_seed = 0xABCDEF0123ULL;
  SnapshotWriter w;
  save_config(w, cfg);
  const std::vector<std::uint8_t> bytes = w.take();
  SnapshotReader r(bytes);
  const SimConfig back = load_config(r);
  EXPECT_EQ(back.measure_seed, cfg.measure_seed);
  EXPECT_EQ(back.seed, cfg.seed);
}

TEST(ReplicaBatchTest, SweepSerializesShardedConfigs) {
  // shards > 1 parallelizes inside one simulation and never shares a
  // warmup, but the sweep must still return its bit-exact cold result.
  std::vector<SimConfig> configs(3, small_cfg(RouterDesign::DXbar));
  configs[0].measure_seed = 11;
  configs[1].shards = 2;
  configs[2].measure_seed = 22;
  SweepReport report;
  const auto swept = run_sweep(configs, 2, nullptr, &report);
  ASSERT_EQ(swept.size(), configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    EXPECT_EQ(stats_bytes(swept[i]), stats_bytes(run_open_loop(configs[i])));
  }
  // The two measure_seed siblings grouped; the sharded point ran cold.
  ASSERT_EQ(report.groups.size(), 1u);
  EXPECT_EQ(report.groups[0].size(), 2u);
  EXPECT_EQ(report.cold_points, 1u);
}

// --- pricing classes ---------------------------------------------------

constexpr RouterDesign kAllDesigns[] = {
    RouterDesign::DXbar,     RouterDesign::FlitBless,  RouterDesign::Buffered4,
    RouterDesign::Buffered8, RouterDesign::BufferedVC, RouterDesign::Scarab,
    RouterDesign::UnifiedXbar, RouterDesign::Afc,      RouterDesign::Damq,
    RouterDesign::MinBD};

/// `s` with its five energy fields zeroed: what a pricing-only field
/// may not change.
TEST(PricingClassTest, PricingOnlyFieldsNeverShapeTheRun) {
  // The claim run_sweep's dedupe rests on: tech_node and flit_bits feed
  // only the energy model.  If either ever shapes traffic (say flit
  // width started serializing multi-phit flits), the non-energy bytes
  // diverge here.
  struct Point {
    int tech_node;
    int flit_bits;
  };
  constexpr Point kPoints[] = {{65, 128}, {32, 256}, {16, 64}};
  for (const RouterDesign design : kAllDesigns) {
    SCOPED_TRACE(std::string(to_string(design)));
    std::vector<RunStats> runs;
    for (const Point& p : kPoints) {
      SimConfig cfg = small_cfg(design);
      cfg.tech_node = p.tech_node;
      cfg.flit_bits = p.flit_bits;
      runs.push_back(run_open_loop(cfg));
    }
    for (std::size_t i = 1; i < runs.size(); ++i) {
      // Pricing moves the energy columns and nothing else.
      EXPECT_TRUE(same_stats(runs[i], runs[0],
                             {"energy_buffer_nj", "energy_crossbar_nj",
                              "energy_link_nj", "energy_control_nj",
                              "energy_leakage_nj"}));
      EXPECT_NE(runs[i].total_energy_nj(), runs[0].total_energy_nj());
    }
  }
}

TEST(PricingClassTest, DynamicsSignatureNeutralizesOnlyPricingFields) {
  const SimConfig base = small_cfg(RouterDesign::DXbar);
  SimConfig priced = base;
  priced.tech_node = 16;
  priced.flit_bits = 64;
  EXPECT_EQ(dynamics_signature(base), dynamics_signature(priced));

  SimConfig seeded = base;
  seeded.measure_seed = 3;
  EXPECT_NE(dynamics_signature(base), dynamics_signature(seeded));
  SimConfig deeper = base;
  deeper.buffer_depth = 8;
  EXPECT_NE(dynamics_signature(base), dynamics_signature(deeper));
}

TEST(PricingClassTest, PricedSweepMatchesColdRuns) {
  // Every design x {65, 32, 16} nm x two measurement seeds, plus a
  // sharded, a closed-loop and a fault-plan point (each with a 16 nm
  // twin) and a flit_bits variant: every result, simulated or priced,
  // must equal the cold run of its own config.
  std::vector<SimConfig> configs;
  for (const RouterDesign design : kAllDesigns) {
    for (const int node : {65, 32, 16}) {
      for (const std::uint64_t ms : {0u, 77u}) {
        SimConfig cfg = small_cfg(design);
        cfg.tech_node = node;
        cfg.measure_seed = ms;
        configs.push_back(cfg);
      }
    }
  }
  SimConfig sharded = small_cfg(RouterDesign::DXbar);
  sharded.shards = 2;
  // shards is not part of a config's identity (sharded runs are
  // bit-identical to one shard), so a fresh seed keeps this point out
  // of the grid's DXbar class and makes it simulate sharded.
  sharded.seed = 9;
  SimConfig closed = small_cfg(RouterDesign::Buffered4);
  closed.workload = WorkloadKind::ClosedLoop;
  closed.mlp = 2;
  SimConfig faulty = small_cfg(RouterDesign::Scarab);
  faulty.fault_fraction = 0.5;
  faulty.fault_onset_spread = 300;
  for (const SimConfig& extra : {sharded, closed, faulty}) {
    configs.push_back(extra);
    configs.push_back(extra);
    configs.back().tech_node = 16;
  }
  SimConfig wide = small_cfg(RouterDesign::UnifiedXbar);
  wide.flit_bits = 256;
  configs.push_back(wide);

  WarmupCache cache;
  SweepReport report;
  const std::vector<RunStats> swept = run_sweep(configs, 2, &cache, &report);
  ASSERT_EQ(swept.size(), configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    SCOPED_TRACE("config " + std::to_string(i));
    EXPECT_EQ(stats_bytes(swept[i]), stats_bytes(run_open_loop(configs[i])));
  }

  // 20 grid classes warm in 10 seed groups; the three extras run cold;
  // everything else (40 grid twins, 3 extra twins, the wide flit) is
  // priced.
  EXPECT_EQ(report.groups.size(), 10u);
  EXPECT_EQ(report.warm_points(), 20u);
  EXPECT_EQ(report.cold_points, 3u);
  EXPECT_EQ(report.priced_points, 44u);
  EXPECT_EQ(report.warm_points() + report.cold_points + report.priced_points,
            configs.size());
  EXPECT_EQ(report.cache_misses, report.groups.size());

  SweepReport again;
  const std::vector<RunStats> reswept = run_sweep(configs, 2, &cache, &again);
  EXPECT_EQ(again.cache_hits, report.groups.size());
  EXPECT_EQ(again.cache_misses, 0u);
  ASSERT_EQ(reswept.size(), swept.size());
  for (std::size_t i = 0; i < swept.size(); ++i) {
    EXPECT_EQ(stats_bytes(reswept[i]), stats_bytes(swept[i]));
  }
}

// --- warmup cache ------------------------------------------------------

TEST(WarmupCacheTest, CountsHitsAndMisses) {
  WarmupCache cache;
  const std::vector<std::uint8_t> key{1, 2, 3};
  EXPECT_EQ(cache.find(key), nullptr);
  const auto stored = cache.insert(key, {9, 9});
  ASSERT_NE(stored, nullptr);
  EXPECT_EQ(cache.find(key), stored);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.entries(), 1u);
}

TEST(WarmupCacheTest, SweepReusesCachedWarmupsAcrossCalls) {
  std::vector<SimConfig> configs(3, small_cfg(RouterDesign::FlitBless));
  for (std::size_t i = 0; i < configs.size(); ++i) {
    configs[i].measure_seed = 5 + i;
  }
  WarmupCache cache;
  SweepReport first, second;
  const auto r1 = run_sweep(configs, 1, &cache, &first);
  const auto r2 = run_sweep(configs, 1, &cache, &second);
  EXPECT_EQ(first.cache_hits, 0u);
  EXPECT_EQ(first.cache_misses, 1u);
  EXPECT_EQ(second.cache_hits, 1u);
  EXPECT_EQ(second.cache_misses, 0u);
  // Cached warmups change where the warmup ran, never the results.
  ASSERT_EQ(r1.size(), r2.size());
  for (std::size_t i = 0; i < r1.size(); ++i) {
    EXPECT_EQ(stats_bytes(r1[i]), stats_bytes(r2[i]));
  }
}

// --- warmup signature --------------------------------------------------

TEST(WarmupSignatureTest, NeutralizesMeasureOnlyFields) {
  const SimConfig base = small_cfg(RouterDesign::DXbar);
  SimConfig seeded = base;
  seeded.measure_seed = 99;
  SimConfig drained = base;
  drained.drain_cycles = 123;
  EXPECT_EQ(warmup_signature(base), warmup_signature(seeded));
  EXPECT_EQ(warmup_signature(base), warmup_signature(drained));

  SimConfig other_design = base;
  other_design.design = RouterDesign::Scarab;
  EXPECT_NE(warmup_signature(base), warmup_signature(other_design));
}

TEST(WarmupSignatureTest, OfferedLoadNeutralizedOnlyUnderPinnedWarmup) {
  SimConfig base = small_cfg(RouterDesign::DXbar);
  SimConfig hotter = base;
  hotter.offered_load = 0.35;
  // Unpinned warmup injects at offered_load: different loads mean
  // different warmups, so the signatures must differ.
  EXPECT_NE(warmup_signature(base), warmup_signature(hotter));
  // A pinned warmup_load makes the warmup load-independent.
  base.warmup_load = 0.2;
  hotter.warmup_load = 0.2;
  EXPECT_EQ(warmup_signature(base), warmup_signature(hotter));
}

}  // namespace
}  // namespace dxbar
