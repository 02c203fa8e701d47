// Determinism guarantees backing the perf-regression harness: a seeded
// open-loop run is a pure function of its SimConfig, and the threaded
// sweep driver returns the same results regardless of the worker count.
// Any hidden global state, allocation-order dependence, or cross-thread
// leak in the simulation kernel shows up here as a field mismatch.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "sim/network.hpp"
#include "sim/sim_runner.hpp"
#include "sim/sweep.hpp"
#include "stats_compare.hpp"
#include "traffic/traffic_gen.hpp"

namespace dxbar {
namespace {

constexpr RouterDesign kAllDesigns[] = {
    RouterDesign::FlitBless, RouterDesign::Scarab,     RouterDesign::Buffered4,
    RouterDesign::Buffered8, RouterDesign::DXbar,      RouterDesign::UnifiedXbar,
    RouterDesign::BufferedVC, RouterDesign::Afc,       RouterDesign::Damq,
    RouterDesign::MinBD,
};

SimConfig small_cfg(RouterDesign design) {
  SimConfig cfg;
  cfg.design = design;
  cfg.mesh_width = 4;
  cfg.mesh_height = 4;
  cfg.warmup_cycles = 200;
  cfg.measure_cycles = 1500;
  cfg.offered_load = 0.25;
  cfg.seed = 7;
  return cfg;
}

class DeterminismTest : public ::testing::TestWithParam<RouterDesign> {};

TEST_P(DeterminismTest, OpenLoopRunIsBitIdenticalAcrossInvocations) {
  const SimConfig cfg = small_cfg(GetParam());
  const RunStats first = run_open_loop(cfg);
  const RunStats second = run_open_loop(cfg);
  EXPECT_TRUE(same_stats(first, second));
}

INSTANTIATE_TEST_SUITE_P(
    Designs, DeterminismTest, ::testing::ValuesIn(kAllDesigns),
    [](const ::testing::TestParamInfo<RouterDesign>& info) {
      std::string name(to_string(info.param));
      for (char& c : name) {
        if (c == '-' || c == ' ') c = '_';
      }
      return name;
    });

// --- sharded in-sim parallelism ---------------------------------------
//
// The shard-count-invariance guarantee (DESIGN.md §10): splitting one
// simulation across threads is purely an execution choice.  Final
// RunStats AND the per-packet delivery records must be bit-exact against
// the single-threaded run for every design, mesh size, and shard count —
// doubles included.

void expect_identical_packets(const std::vector<PacketRecord>& a,
                              const std::vector<PacketRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("packet record " + std::to_string(i));
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].src, b[i].src);
    EXPECT_EQ(a[i].dst, b[i].dst);
    EXPECT_EQ(a[i].length, b[i].length);
    EXPECT_EQ(a[i].created, b[i].created);
    EXPECT_EQ(a[i].injected, b[i].injected);
    EXPECT_EQ(a[i].completed, b[i].completed);
    EXPECT_EQ(a[i].total_hops, b[i].total_hops);
    EXPECT_EQ(a[i].total_deflections, b[i].total_deflections);
    EXPECT_EQ(a[i].total_retransmits, b[i].total_retransmits);
  }
}

struct ShardCase {
  RouterDesign design;
  int mesh = 8;  ///< width == height
};

class ShardEquivalenceTest : public ::testing::TestWithParam<ShardCase> {};

TEST_P(ShardEquivalenceTest, ShardedRunIsBitIdenticalToSingleThreaded) {
  const ShardCase& c = GetParam();
  SimConfig cfg;
  cfg.design = c.design;
  cfg.mesh_width = c.mesh;
  cfg.mesh_height = c.mesh;
  cfg.offered_load = 0.30;
  cfg.warmup_cycles = 200;
  cfg.measure_cycles = c.mesh >= 16 ? 600 : 1200;
  cfg.seed = 11;

  cfg.shards = 1;
  const DetailedRun serial = run_open_loop_detailed(cfg);
  for (int shards : {2, 4}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    cfg.shards = shards;
    const DetailedRun sharded = run_open_loop_detailed(cfg);
    EXPECT_TRUE(same_stats(serial.stats, sharded.stats));
    expect_identical_packets(serial.packets, sharded.packets);
  }
}

std::vector<ShardCase> shard_cases() {
  std::vector<ShardCase> cases;
  for (RouterDesign d : kAllDesigns) {
    cases.push_back({d, 8});
    cases.push_back({d, 16});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllDesigns, ShardEquivalenceTest, ::testing::ValuesIn(shard_cases()),
    [](const ::testing::TestParamInfo<ShardCase>& info) {
      std::string name(to_string(info.param.design));
      for (char& c : name) {
        if (c == '-' || c == ' ') c = '_';
      }
      return name + "_" + std::to_string(info.param.mesh) + "x" +
             std::to_string(info.param.mesh);
    });

TEST(ShardEquivalence, FaultPlansWithBistTimersStayBitExact) {
  // Crossbar faults manifest and get detected on per-node BIST timers;
  // both are pure functions of (node, cycle), so sharding must not move
  // any routing decision.  Staggered onsets keep detection transients
  // firing throughout the run.
  SimConfig cfg;
  cfg.design = RouterDesign::DXbar;
  cfg.fault_fraction = 0.5;
  cfg.fault_onset_spread = 400;
  cfg.offered_load = 0.25;
  cfg.warmup_cycles = 200;
  cfg.measure_cycles = 1200;
  cfg.seed = 23;

  cfg.shards = 1;
  const DetailedRun serial = run_open_loop_detailed(cfg);
  cfg.shards = 4;
  const DetailedRun sharded = run_open_loop_detailed(cfg);
  EXPECT_TRUE(same_stats(serial.stats, sharded.stats));
  expect_identical_packets(serial.packets, sharded.packets);
}

TEST(ShardEquivalence, ScarabNackNetworkStaysBitExact) {
  // SCARAB drops cross shard boundaries through the staged-drop commit;
  // the NACK network's wire arbitration is sequence-ordered, so this
  // pins the commit order to the single-threaded call order.  High load
  // forces plenty of drops.
  SimConfig cfg;
  cfg.design = RouterDesign::Scarab;
  cfg.offered_load = 0.45;
  cfg.warmup_cycles = 200;
  cfg.measure_cycles = 1200;
  cfg.seed = 29;

  cfg.shards = 1;
  const DetailedRun serial = run_open_loop_detailed(cfg);
  for (int shards : {2, 4, 8}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    cfg.shards = shards;
    const DetailedRun sharded = run_open_loop_detailed(cfg);
    EXPECT_TRUE(same_stats(serial.stats, sharded.stats));
    expect_identical_packets(serial.packets, sharded.packets);
  }
}

TEST(ShardEquivalence, ShardCountClampsToMeshHeight) {
  // More shards than rows degenerates to one row per shard.
  SimConfig cfg = small_cfg(RouterDesign::DXbar);
  cfg.shards = 1;
  const RunStats serial = run_open_loop(cfg);
  cfg.shards = 64;  // 4-row mesh: clamps to 4
  const RunStats sharded = run_open_loop(cfg);
  EXPECT_TRUE(same_stats(serial, sharded));
}

TEST(ShardEquivalence, SaturatedMesh64WindowIsBitExactAcrossShardCounts) {
  // A 64x64 DXbar/DOR mesh far past saturation, stepped for a 100-cycle
  // warmup and a 300-cycle window at 1, 2, 4 and 8 shards (more shards
  // than most hosts have cores).  Draining it would take tens of
  // thousands of cycles, so the end-of-window state is compared instead
  // of RunStats: the flit counters, the energy totals (derived from
  // integer event counts, so they compare exactly) and the snapshot
  // bytes, which hold every queue, register, reassembly entry and
  // statistic in an order that does not depend on the shard count.
  SimConfig cfg;
  cfg.design = RouterDesign::DXbar;
  cfg.routing = RoutingAlgo::DOR;
  cfg.pattern = TrafficPattern::UniformRandom;
  cfg.mesh_width = 64;
  cfg.mesh_height = 64;
  cfg.offered_load = 0.30;
  std::tuple<std::uint64_t, std::uint64_t, double, double, double, double>
      serial_window;
  std::vector<std::uint8_t> serial_bytes;
  for (int shards : {1, 2, 4, 8}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    cfg.shards = shards;
    Network net(cfg);
    SyntheticWorkload workload(cfg, net.mesh());
    net.set_workload(&workload);
    for (int c = 0; c < 100 + 300; ++c) net.step();
    ASSERT_GT(net.flits_delivered(), 0u);
    ASSERT_GT(net.flits_created(), net.flits_delivered());
    const EnergyMeter& e = net.energy();
    const auto window =
        std::tuple{net.flits_created(), net.flits_delivered(), e.buffer_nj(),
                   e.crossbar_nj(),     e.link_nj(),           e.control_nj()};
    if (shards == 1) {
      serial_window = window;
      serial_bytes = net.snapshot();
    } else {
      EXPECT_EQ(window, serial_window);
      EXPECT_TRUE(net.snapshot() == serial_bytes);
    }
  }
}

/// Records every hop and ejection a tracer sees, in callback order.
class EventLog final : public EventTracer {
 public:
  struct Event {
    Cycle now;
    NodeId at;
    PacketId packet;
    std::uint16_t seq;
    auto operator<=>(const Event&) const = default;
  };
  void on_flit_hop(const Flit& f, NodeId at, Cycle now) override {
    hops.push_back({now, at, f.packet, f.seq});
  }
  void on_flit_ejected(const Flit& f, Cycle now) override {
    ejections.push_back({now, f.dst, f.packet, f.seq});
  }
  std::vector<Event> hops;
  std::vector<Event> ejections;
};

TEST(ShardEquivalence, TracedShardedRunEjectsInSingleShardOrder) {
  // A tracer sends a sharded network down the inline path.  Ejections
  // must reach it in exactly the single-shard order: the per-shard
  // ejection lists drain in shard order, which is node order.  Hops
  // within a cycle follow the active-channel lists, whose order depends
  // on the partition, so they compare as a set.
  for (RouterDesign d : kAllDesigns) {
    SCOPED_TRACE(std::string(to_string(d)));
    EventLog serial;
    for (int shards : {1, 4}) {
      SimConfig cfg;
      cfg.design = d;
      cfg.offered_load = 0.35;
      cfg.shards = shards;
      cfg.seed = 5;
      Network net(cfg);
      SyntheticWorkload workload(cfg, net.mesh());
      net.set_workload(&workload);
      EventLog log;
      net.set_tracer(&log);
      for (int c = 0; c < 600; ++c) net.step();
      ASSERT_FALSE(log.ejections.empty());
      std::sort(log.hops.begin(), log.hops.end());
      if (shards == 1) {
        serial = std::move(log);
      } else {
        EXPECT_TRUE(log.ejections == serial.ejections);
        EXPECT_TRUE(log.hops == serial.hops);
      }
    }
  }
}

TEST(SweepDeterminism, ResultsIndependentOfThreadCount) {
  // A mixed batch (several designs x loads) exercises work stealing with
  // unequal point costs; results must align with the input order and be
  // identical for any worker count.
  std::vector<SimConfig> configs;
  for (RouterDesign d : {RouterDesign::DXbar, RouterDesign::FlitBless,
                         RouterDesign::Buffered4}) {
    for (double load : {0.1, 0.3, 0.45}) {
      SimConfig cfg = small_cfg(d);
      cfg.offered_load = load;
      configs.push_back(cfg);
    }
  }

  const std::vector<RunStats> one = run_sweep(configs, 1);
  const std::vector<RunStats> two = run_sweep(configs, 2);
  const std::vector<RunStats> eight = run_sweep(configs, 8);

  ASSERT_EQ(one.size(), configs.size());
  ASSERT_EQ(two.size(), configs.size());
  ASSERT_EQ(eight.size(), configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    SCOPED_TRACE("sweep point " + std::to_string(i));
    EXPECT_TRUE(same_stats(one[i], two[i]));
    EXPECT_TRUE(same_stats(one[i], eight[i]));
  }
}

}  // namespace
}  // namespace dxbar
