// Tests for the extension baselines (VC router, AFC router), per-VC
// channel credits, and latency percentiles.
#include <gtest/gtest.h>

#include "router/afc_router.hpp"
#include "router/vc_router.hpp"
#include "sim/network.hpp"
#include "sim/sim_runner.hpp"
#include "topology/channel.hpp"
#include "traffic/trace_io.hpp"

namespace dxbar {
namespace {

// ---- per-VC channel credits ---------------------------------------------

TEST(VcChannel, IndependentCreditPools) {
  Channel ch(/*num_vcs=*/2, /*per_vc_credits=*/2);
  std::optional<Flit> reg;
  ch.deliver_into(&reg);
  EXPECT_EQ(ch.num_vcs(), 2);
  EXPECT_EQ(ch.credits(), 4);

  ch.send_vc(Flit{.packet = 1}, 0);
  ch.advance();
  ch.send_vc(Flit{.packet = 2}, 0);
  ch.advance();
  EXPECT_FALSE(ch.can_send_vc(0));  // VC0 pool exhausted
  EXPECT_TRUE(ch.can_send_vc(1));   // VC1 pool untouched

  ch.return_credit_vc(0);
  EXPECT_FALSE(ch.can_send_vc(0));  // one-cycle return latency
  reg.reset();                      // consume, as a router consumes in[]
  ch.advance();
  EXPECT_TRUE(ch.can_send_vc(0));
}

TEST(VcChannel, SendTagsFlitWithVc) {
  Channel ch(2, 4);
  std::optional<Flit> reg;
  ch.deliver_into(&reg);
  ch.send_vc(Flit{.packet = 9}, 1);
  ch.advance();
  ch.advance();
  ASSERT_TRUE(reg.has_value());
  EXPECT_EQ(reg->vc, 1);
}

TEST(VcChannel, OnlyOneFlitPerCycleAcrossVcs) {
  Channel ch(2, 4);
  ch.send_vc(Flit{}, 0);
  EXPECT_FALSE(ch.can_send_vc(1));  // link occupied this cycle
  ch.advance();
  EXPECT_TRUE(ch.can_send_vc(1));
}

// ---- latency percentiles -------------------------------------------------

TEST(Percentiles, OrderedAndBounded) {
  SimConfig cfg;
  cfg.design = RouterDesign::DXbar;
  cfg.offered_load = 0.3;
  cfg.warmup_cycles = 300;
  cfg.measure_cycles = 1500;
  const RunStats s = run_open_loop(cfg);
  EXPECT_GT(s.latency_p50, 0.0);
  EXPECT_LE(s.latency_p50, s.latency_p95);
  EXPECT_LE(s.latency_p95, s.latency_p99);
  EXPECT_LE(s.latency_p99, s.latency_max);
  EXPECT_LE(s.avg_packet_latency, s.latency_max);
  EXPECT_GE(s.latency_max, s.latency_p50);
}

TEST(Percentiles, EmptyWindowIsZero) {
  StatsCollector sc(0, 10, 4);
  const RunStats s = sc.summarize(0.0, true);
  EXPECT_DOUBLE_EQ(s.latency_p50, 0.0);
  EXPECT_DOUBLE_EQ(s.latency_max, 0.0);
}

// ---- VC router -------------------------------------------------------------

TEST(VcRouter, ConservesFlitsAndDrains) {
  SimConfig cfg;
  cfg.design = RouterDesign::BufferedVC;
  cfg.offered_load = 0.25;
  cfg.warmup_cycles = 0;
  cfg.measure_cycles = 1000;

  Network net(cfg);
  const Mesh m(8, 8);
  SyntheticWorkload w(cfg, m);
  net.set_workload(&w);
  for (Cycle t = 0; t < 1000; ++t) net.step();
  w.set_injection_enabled(false);
  for (Cycle t = 0; t < 30000 && !net.idle(); ++t) net.step();
  ASSERT_TRUE(net.idle());
  EXPECT_EQ(net.flits_created(), net.flits_delivered());
}

TEST(VcRouter, SpeculationFailuresHappenUnderLoad) {
  SimConfig cfg;
  cfg.design = RouterDesign::BufferedVC;
  cfg.offered_load = 0.45;
  cfg.warmup_cycles = 0;
  cfg.measure_cycles = 1500;

  Network net(cfg);
  const Mesh m(8, 8);
  SyntheticWorkload w(cfg, m);
  net.set_workload(&w);
  for (Cycle t = 0; t < 1500; ++t) net.step();

  std::uint64_t failures = 0;
  for (NodeId n = 0; n < 64; ++n) {
    failures += dynamic_cast<const VcRouter&>(net.router(n))
                    .speculation_failures();
  }
  EXPECT_GT(failures, 0u)
      << "speculative SA must sometimes win without a downstream credit";
}

TEST(VcRouter, RespectsVcDepthDivisibility) {
  SimConfig cfg;
  cfg.design = RouterDesign::BufferedVC;
  cfg.buffer_depth = 5;
  cfg.num_vcs = 2;
  EXPECT_NE(cfg.validate(), "");
  cfg.buffer_depth = 4;
  EXPECT_EQ(cfg.validate(), "");
}

TEST(VcRouter, WestFirstWorksToo) {
  SimConfig cfg;
  cfg.design = RouterDesign::BufferedVC;
  cfg.routing = RoutingAlgo::WestFirst;
  cfg.offered_load = 0.2;
  cfg.warmup_cycles = 200;
  cfg.measure_cycles = 800;
  const RunStats s = run_open_loop(cfg);
  EXPECT_TRUE(s.drained);
  EXPECT_NEAR(s.accepted_load, 0.2, 0.02);
}

// ---- AFC router -------------------------------------------------------------

TEST(Afc, StaysBufferlessAtLowLoad) {
  SimConfig cfg;
  cfg.design = RouterDesign::Afc;
  cfg.offered_load = 0.05;
  cfg.warmup_cycles = 0;
  cfg.measure_cycles = 1500;

  Network net(cfg);
  const Mesh m(8, 8);
  SyntheticWorkload w(cfg, m);
  net.set_workload(&w);
  for (Cycle t = 0; t < 1500; ++t) net.step();

  int buffered = 0;
  for (NodeId n = 0; n < 64; ++n) {
    if (dynamic_cast<const AfcRouter&>(net.router(n)).buffered_mode()) {
      ++buffered;
    }
  }
  EXPECT_LT(buffered, 8) << "low load must keep routers bufferless";

  // Bufferless mode spends no buffer energy.
  EXPECT_LT(net.energy().buffer_nj(), net.energy().total_nj() * 0.01);
}

TEST(Afc, SwitchesToBufferedAtHighLoad) {
  SimConfig cfg;
  cfg.design = RouterDesign::Afc;
  cfg.offered_load = 0.6;
  cfg.warmup_cycles = 0;
  cfg.measure_cycles = 1500;

  Network net(cfg);
  const Mesh m(8, 8);
  SyntheticWorkload w(cfg, m);
  net.set_workload(&w);
  for (Cycle t = 0; t < 1500; ++t) net.step();

  int buffered = 0;
  std::uint64_t switches = 0;
  for (NodeId n = 0; n < 64; ++n) {
    const auto& r = dynamic_cast<const AfcRouter&>(net.router(n));
    if (r.buffered_mode()) ++buffered;
    switches += r.mode_switches();
  }
  EXPECT_GT(buffered, 16) << "center routers must switch to buffered mode";
  EXPECT_GT(switches, 0u);
  EXPECT_GT(net.energy().buffer_nj(), 0.0);
}

TEST(Afc, ConservesFlitsAcrossModeSwitches) {
  // Alternate heavy bursts with silence to force repeated transitions.
  SimConfig cfg;
  cfg.design = RouterDesign::Afc;
  cfg.packet_length = 1;
  cfg.warmup_cycles = 0;
  cfg.measure_cycles = 100000;

  std::vector<TraceEntry> entries;
  Rng rng(5);
  for (int burst = 0; burst < 6; ++burst) {
    const Cycle base = static_cast<Cycle>(burst) * 400;
    for (Cycle t = 0; t < 120; ++t) {
      for (int k = 0; k < 3; ++k) {
        const NodeId src = rng.below(64);
        NodeId dst = rng.below(64);
        if (dst == src) dst = (dst + 1) % 64;
        entries.push_back({base + t, src, dst, 1});
      }
    }
  }
  const std::size_t total = entries.size();

  Network net(cfg);
  TraceWorkload w(std::move(entries));
  net.set_workload(&w);
  Cycle t = 0;
  while ((!w.finished() || !net.idle()) && t < 100000) {
    net.step();
    ++t;
  }
  ASSERT_TRUE(net.idle());
  EXPECT_EQ(net.packets_delivered(), total);
}

TEST(Afc, EnergyBetweenBlessAndBuffered) {
  SimConfig cfg;
  cfg.offered_load = 0.45;
  cfg.warmup_cycles = 300;
  cfg.measure_cycles = 1500;

  cfg.design = RouterDesign::Afc;
  const RunStats afc = run_open_loop(cfg);
  cfg.design = RouterDesign::FlitBless;
  const RunStats bless = run_open_loop(cfg);

  // Past Bless's saturation, AFC's buffered mode must beat pure
  // deflection on energy.
  EXPECT_LT(afc.energy_per_packet_nj(), bless.energy_per_packet_nj());
}

}  // namespace
}  // namespace dxbar
