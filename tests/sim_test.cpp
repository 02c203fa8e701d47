// Tests for sim/: runners, sweeps, saturation search, closed-loop runs,
// NACK network and the core facade.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>

#include "core/dxbar.hpp"
#include "report/analysis.hpp"
#include "sim/nack_network.hpp"

namespace dxbar {
namespace {

TEST(NackNetwork, DeliversAfterDistancePlusOne) {
  const Mesh m(8, 8);
  SimConfig scarab;
  scarab.design = RouterDesign::Scarab;
  EnergyMeter energy(scarab);
  NackNetwork nn;
  Flit f{.packet = 1, .src = m.node(0, 0)};
  nn.schedule(f, m.node(3, 4), /*now=*/10, m, energy);
  EXPECT_TRUE(nn.deliveries(10).empty());
  EXPECT_TRUE(nn.deliveries(17).empty());  // distance 7 + 1 => cycle 18
  const auto got = nn.deliveries(18);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].packet, 1u);
  EXPECT_TRUE(nn.empty());
  // Energy: 7 NACK hops charged.
  EXPECT_DOUBLE_EQ(energy.control_nj(),
                   7 * energy.params().nack_hop_pj * 1e-3);
}

TEST(NackNetwork, PerSourceWireSerializesBursts) {
  const Mesh m(4, 4);
  SimConfig scarab;
  scarab.design = RouterDesign::Scarab;
  EnergyMeter energy(scarab);
  NackNetwork nn;
  nn.set_num_nodes(16);
  // Three drops against the same source, all 1 hop away at cycle 0:
  // ideal delivery would be cycle 2 for each; the 1-bit wire spreads
  // them over cycles 2, 3, 4.
  for (int i = 0; i < 3; ++i) {
    Flit f{.packet = static_cast<PacketId>(i + 1), .src = 0};
    nn.schedule(f, 1, 0, m, energy);
  }
  EXPECT_EQ(nn.deliveries(1).size(), 0u);
  EXPECT_EQ(nn.deliveries(2).size(), 1u);
  EXPECT_EQ(nn.deliveries(3).size(), 1u);
  EXPECT_EQ(nn.deliveries(4).size(), 1u);
  EXPECT_TRUE(nn.empty());
}

TEST(NackNetwork, SameCycleDeliveriesKeepFifoOrder) {
  const Mesh m(4, 4);
  SimConfig scarab;
  scarab.design = RouterDesign::Scarab;
  EnergyMeter energy(scarab);
  NackNetwork nn;
  Flit a{.packet = 1, .src = 0};
  Flit b{.packet = 2, .src = 0};
  nn.schedule(a, 1, 0, m, energy);
  nn.schedule(b, 1, 0, m, energy);
  const auto got = nn.deliveries(100);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].packet, 1u);
  EXPECT_EQ(got[1].packet, 2u);
}

TEST(Sweep, ParallelMatchesSerial) {
  std::vector<SimConfig> cfgs;
  for (double load : {0.1, 0.2, 0.3}) {
    SimConfig c;
    c.design = RouterDesign::DXbar;
    c.offered_load = load;
    c.warmup_cycles = 100;
    c.measure_cycles = 400;
    cfgs.push_back(c);
  }
  const auto serial = run_sweep(cfgs, 1);
  const auto parallel = run_sweep(cfgs, 3);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].flits_ejected, parallel[i].flits_ejected);
    EXPECT_DOUBLE_EQ(serial[i].avg_packet_latency,
                     parallel[i].avg_packet_latency);
  }
}

TEST(ParallelFor, VisitsEveryIndexOnce) {
  std::vector<std::atomic<int>> hits(257);
  parallel_for(257, [&](std::size_t i) { ++hits[i]; }, 8);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  parallel_for(0, [&](std::size_t) { FAIL(); }, 4);
}

TEST(ParallelFor, RethrowsAWorkerExceptionOnTheCaller) {
  for (const unsigned threads : {1u, 4u}) {
    std::atomic<int> calls{0};
    EXPECT_THROW(parallel_for(
                     64,
                     [&](std::size_t i) {
                       ++calls;
                       if (i == 5) throw std::runtime_error("job 5");
                     },
                     threads),
                 std::runtime_error);
    EXPECT_GE(calls.load(), 1);
  }
}

TEST(Facade, SaturationDetectsBufferlessBelowDXbar) {
  SimConfig base;
  base.warmup_cycles = 300;
  base.measure_cycles = 1200;
  std::vector<double> loads;  // 0.1 .. 0.9, accumulated in steps of 0.1
  for (double l = 0.1; l <= 0.9 + 1e-9; l += 0.1) loads.push_back(l);

  std::vector<SimConfig> cfgs;
  for (RouterDesign d : {RouterDesign::FlitBless, RouterDesign::DXbar}) {
    for (double l : loads) {
      SimConfig c = base;
      c.design = d;
      c.offered_load = l;
      cfgs.push_back(c);
    }
  }
  const std::vector<RunStats> stats = run_sweep(cfgs);
  const auto saturation = [&](std::size_t first) {
    std::vector<double> accepted;
    for (std::size_t i = 0; i < loads.size(); ++i) {
      accepted.push_back(stats[first + i].accepted_load);
    }
    return report::saturation_from_points(loads, accepted);
  };
  const double bless = saturation(0);
  const double dx = saturation(loads.size());
  EXPECT_GT(dx, bless);
}

/// A workload=splash point: `app` run to completion (the whole run is
/// the window, capped at `cap` cycles).
SimConfig splash_cfg(SplashApp app, int transactions, Cycle cap) {
  SimConfig cfg;
  cfg.workload = WorkloadKind::Splash;
  cfg.splash_app = app;
  cfg.transactions = transactions;
  cfg.warmup_cycles = 0;
  cfg.measure_cycles = cap;
  return cfg;
}

TEST(ClosedLoop, SplashRunsToCompletion) {
  SimConfig cfg = splash_cfg(SplashApp::Water, 10, 400000);  // fast
  cfg.design = RouterDesign::DXbar;
  const RunStats r = run_open_loop(cfg);
  EXPECT_TRUE(r.drained);
  EXPECT_GT(r.cycles, 0u);
  EXPECT_LT(r.cycles, 400000u);
  EXPECT_GT(r.packets_completed, 0u);
  EXPECT_GT(r.total_energy_nj(), 0.0);
  EXPECT_GT(r.avg_packet_latency, 0.0);
}

TEST(ClosedLoop, AllDesignsFinishTheSameWorkload) {
  SimConfig cfg = splash_cfg(SplashApp::FMM, 6, 600000);
  std::uint64_t packets = 0;
  for (RouterDesign d :
       {RouterDesign::FlitBless, RouterDesign::Scarab, RouterDesign::Buffered4,
        RouterDesign::DXbar, RouterDesign::UnifiedXbar}) {
    cfg.design = d;
    const RunStats r = run_open_loop(cfg);
    EXPECT_TRUE(r.drained) << to_string(d);
    // The traffic content derives from transaction ids, not timing.
    if (packets == 0) packets = r.packets_completed;
    EXPECT_EQ(r.packets_completed, packets) << to_string(d);
  }
}

TEST(ClosedLoop, TraceReplayFinishesAndDrains) {
  SimConfig cfg;
  cfg.design = RouterDesign::UnifiedXbar;
  cfg.warmup_cycles = 0;
  cfg.measure_cycles = 100000;
  std::vector<TraceEntry> entries;
  for (Cycle t = 0; t < 100; ++t) {
    entries.push_back({t, static_cast<NodeId>(t % 64),
                       static_cast<NodeId>((t * 7 + 1) % 64), 3});
  }
  TraceWorkload w(std::move(entries));
  const RunStats r = run_open_loop(cfg, w);
  EXPECT_TRUE(r.drained);
  EXPECT_EQ(r.packets_completed, 100u);
  EXPECT_LT(r.cycles, 100000u);  // ended when the replay drained
}

TEST(ClosedLoop, MeasureSeedReseedsSplashTraffic) {
  SimConfig cfg = splash_cfg(SplashApp::FFT, 10, 400000);
  // measure_seed 0 keeps the traffic of cfg.seed: the execution time
  // recorded before SPLASH runs became configs.
  const RunStats base = run_open_loop(cfg);
  EXPECT_EQ(base.cycles, 1047u);
  EXPECT_EQ(base.packets_completed, 2042u);
  cfg.measure_seed = 11;
  const RunStats a = run_open_loop(cfg);
  cfg.measure_seed = 12;
  const RunStats b = run_open_loop(cfg);
  EXPECT_TRUE(a.drained && b.drained);
  EXPECT_NE(a.cycles, b.cycles);
  EXPECT_NE(a.cycles, base.cycles);
}

TEST(Facade, VersionIsSemver) {
  const auto v = version();
  EXPECT_FALSE(v.empty());
  EXPECT_NE(v.find('.'), std::string_view::npos);
}

TEST(Runner, UnDrainedRunIsReported) {
  // Absurd overload with a tiny drain budget: drained must be false and
  // the run must still return sensible partial statistics.
  SimConfig cfg;
  cfg.design = RouterDesign::Buffered4;
  cfg.offered_load = 0.9;
  cfg.warmup_cycles = 100;
  cfg.measure_cycles = 500;
  cfg.drain_cycles = 10;
  const RunStats s = run_open_loop(cfg);
  EXPECT_FALSE(s.drained);
  EXPECT_GT(s.flits_ejected, 0u);
}

}  // namespace
}  // namespace dxbar
