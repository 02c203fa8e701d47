// Network-level property tests: flit conservation, drain, determinism,
// invariants across every design x routing x pattern combination.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "sim/network.hpp"
#include "sim/sim_runner.hpp"
#include "stats_compare.hpp"
#include "traffic/traffic_gen.hpp"

namespace dxbar {
namespace {

constexpr RouterDesign kDesigns[] = {
    RouterDesign::FlitBless, RouterDesign::Scarab,
    RouterDesign::Buffered4,  RouterDesign::Buffered8,
    RouterDesign::DXbar,      RouterDesign::UnifiedXbar,
    RouterDesign::BufferedVC, RouterDesign::Afc,
    RouterDesign::Damq,       RouterDesign::MinBD};

// ---- conservation: nothing lost, nothing duplicated ---------------------

class ConservationTest
    : public ::testing::TestWithParam<std::tuple<RouterDesign, RoutingAlgo>> {
};

TEST_P(ConservationTest, AllInjectedFlitsDeliveredExactlyOnce) {
  const auto [design, routing] = GetParam();
  SimConfig cfg;
  cfg.mesh_width = 6;
  cfg.mesh_height = 6;
  cfg.design = design;
  cfg.routing = routing;
  cfg.offered_load = 0.25;
  cfg.packet_length = 3;
  cfg.warmup_cycles = 0;
  cfg.measure_cycles = 1200;
  cfg.seed = 99;

  Network net(cfg);
  const Mesh m(cfg.mesh_width, cfg.mesh_height);
  SyntheticWorkload w(cfg, m);
  net.set_workload(&w);

  for (Cycle t = 0; t < 1200; ++t) net.step();
  w.set_injection_enabled(false);
  for (Cycle t = 0; t < 30000 && !net.idle(); ++t) net.step();

  ASSERT_TRUE(net.idle()) << "network failed to drain";
  EXPECT_EQ(net.flits_created(), net.flits_delivered());
  EXPECT_EQ(net.packets_created(), net.packets_delivered());
}

INSTANTIATE_TEST_SUITE_P(
    AllDesigns, ConservationTest,
    ::testing::Combine(::testing::ValuesIn(kDesigns),
                       ::testing::Values(RoutingAlgo::DOR,
                                         RoutingAlgo::WestFirst)),
    [](const auto& info) {
      std::string name =
          std::string(to_string(std::get<0>(info.param))) + "_" +
          std::string(to_string(std::get<1>(info.param)));
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

// ---- conservation under every traffic pattern (DXbar) -------------------

class PatternConservationTest
    : public ::testing::TestWithParam<TrafficPattern> {};

TEST_P(PatternConservationTest, DXbarConservesFlits) {
  SimConfig cfg;
  cfg.design = RouterDesign::DXbar;
  cfg.pattern = GetParam();
  cfg.offered_load = 0.3;
  cfg.warmup_cycles = 0;
  cfg.measure_cycles = 800;
  cfg.seed = 3;

  Network net(cfg);
  const Mesh m(cfg.mesh_width, cfg.mesh_height);
  SyntheticWorkload w(cfg, m);
  net.set_workload(&w);
  for (Cycle t = 0; t < 800; ++t) net.step();
  w.set_injection_enabled(false);
  for (Cycle t = 0; t < 30000 && !net.idle(); ++t) net.step();

  ASSERT_TRUE(net.idle());
  EXPECT_EQ(net.flits_created(), net.flits_delivered());
}

INSTANTIATE_TEST_SUITE_P(AllPatterns, PatternConservationTest,
                         ::testing::ValuesIn(kAllPatterns),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

// ---- fault-tolerance delivery guarantee ---------------------------------

class FaultDeliveryTest : public ::testing::TestWithParam<double> {};

TEST_P(FaultDeliveryTest, DXbarDeliversEverythingDespiteFaults) {
  SimConfig cfg;
  cfg.design = RouterDesign::DXbar;
  cfg.offered_load = 0.2;
  cfg.fault_fraction = GetParam();
  cfg.warmup_cycles = 0;
  cfg.measure_cycles = 1000;
  cfg.seed = 11;

  Network net(cfg);
  const Mesh m(cfg.mesh_width, cfg.mesh_height);
  SyntheticWorkload w(cfg, m);
  net.set_workload(&w);
  for (Cycle t = 0; t < 1000; ++t) net.step();
  w.set_injection_enabled(false);
  for (Cycle t = 0; t < 60000 && !net.idle(); ++t) net.step();

  ASSERT_TRUE(net.idle()) << "faulty network failed to drain";
  EXPECT_EQ(net.flits_created(), net.flits_delivered());
  // With fraction f, ceil(f*64) routers must actually be degraded.
  EXPECT_EQ(net.faults().num_faulty(),
            static_cast<int>(std::ceil(GetParam() * 64)));
}

INSTANTIATE_TEST_SUITE_P(FaultFractions, FaultDeliveryTest,
                         ::testing::Values(0.0, 0.25, 0.5, 0.75, 1.0),
                         [](const auto& info) {
                           return "f" + std::to_string(static_cast<int>(
                                            info.param * 100));
                         });

// ---- determinism ---------------------------------------------------------

TEST(Determinism, SameSeedSameResults) {
  SimConfig cfg;
  cfg.design = RouterDesign::DXbar;
  cfg.offered_load = 0.35;
  cfg.warmup_cycles = 200;
  cfg.measure_cycles = 800;
  const RunStats a = run_open_loop(cfg);
  const RunStats b = run_open_loop(cfg);
  EXPECT_TRUE(same_stats(a, b));

  cfg.seed = 1234;
  const RunStats c = run_open_loop(cfg);
  EXPECT_NE(a.flits_ejected, c.flits_ejected);
}

// ---- windowed measurement behaviour --------------------------------------

TEST(Measurement, AcceptedTracksOfferedBelowSaturation) {
  for (RouterDesign d : kDesigns) {
    SimConfig cfg;
    cfg.design = d;
    cfg.offered_load = 0.15;
    cfg.warmup_cycles = 500;
    cfg.measure_cycles = 2000;
    const RunStats s = run_open_loop(cfg);
    EXPECT_NEAR(s.accepted_load, 0.15, 0.02) << to_string(d);
    EXPECT_TRUE(s.drained) << to_string(d);
  }
}

TEST(Measurement, LatencyIncludesSourceQueueing) {
  SimConfig cfg;
  cfg.design = RouterDesign::DXbar;
  cfg.offered_load = 0.1;
  cfg.warmup_cycles = 200;
  cfg.measure_cycles = 1000;
  const RunStats s = run_open_loop(cfg);
  EXPECT_GE(s.avg_packet_latency, s.avg_network_latency);
  EXPECT_GT(s.avg_network_latency, 0.0);
}

// ---- minimality below saturation ----------------------------------------

TEST(Minimality, BufferedDesignsRouteMinimally) {
  for (RouterDesign d : {RouterDesign::Buffered4, RouterDesign::Buffered8,
                         RouterDesign::DXbar}) {
    SimConfig cfg;
    cfg.design = d;
    cfg.offered_load = 0.2;
    cfg.warmup_cycles = 200;
    cfg.measure_cycles = 1000;
    const RunStats s = run_open_loop(cfg);
    if (d == RouterDesign::DXbar) {
      // DXbar's overflow escape valve may fire on transient FIFO fills,
      // but below saturation it must stay rare (paper: flits are
      // buffered, not deflected).
      EXPECT_LT(s.deflections_per_flit, 0.01) << to_string(d);
    } else {
      EXPECT_EQ(s.deflections_per_flit, 0.0) << to_string(d);
    }
    // Average UR hop count on an 8x8 mesh is ~5.33.
    EXPECT_NEAR(s.avg_hops, Mesh(8, 8).average_distance(), 0.35)
        << to_string(d);
  }
}

TEST(Minimality, BlessDeflectsUnderLoadButNotAtZeroLoad) {
  SimConfig cfg;
  cfg.design = RouterDesign::FlitBless;
  cfg.warmup_cycles = 200;
  cfg.measure_cycles = 1500;

  cfg.offered_load = 0.05;
  const RunStats low = run_open_loop(cfg);
  cfg.offered_load = 0.45;
  const RunStats high = run_open_loop(cfg);
  // Even at 5% load the 5-flit trains occasionally cross, so a small
  // deflection rate remains; it must grow sharply toward saturation.
  EXPECT_LT(low.deflections_per_flit, 0.25);
  EXPECT_GT(high.deflections_per_flit, low.deflections_per_flit * 3);
}

TEST(Scarab, RetransmitsAppearUnderLoad) {
  SimConfig cfg;
  cfg.design = RouterDesign::Scarab;
  cfg.offered_load = 0.45;
  cfg.warmup_cycles = 200;
  cfg.measure_cycles = 1500;
  const RunStats s = run_open_loop(cfg);
  EXPECT_GT(s.retransmits_per_flit, 0.0);
  EXPECT_GT(s.energy_control_nj, 0.0);  // NACK network energy
}

// ---- energy sanity --------------------------------------------------------

TEST(Energy, BufferlessDesignsSpendNoBufferEnergy) {
  for (RouterDesign d : {RouterDesign::FlitBless, RouterDesign::Scarab}) {
    SimConfig cfg;
    cfg.design = d;
    cfg.offered_load = 0.2;
    cfg.warmup_cycles = 200;
    cfg.measure_cycles = 800;
    const RunStats s = run_open_loop(cfg);
    EXPECT_DOUBLE_EQ(s.energy_buffer_nj, 0.0) << to_string(d);
  }
}

TEST(Energy, BufferedChargesEveryHop) {
  SimConfig cfg;
  cfg.design = RouterDesign::Buffered4;
  cfg.offered_load = 0.2;
  cfg.warmup_cycles = 200;
  cfg.measure_cycles = 800;
  const RunStats s = run_open_loop(cfg);
  EXPECT_GT(s.energy_buffer_nj, 0.0);
  // DXbar at the same load buffers rarely -> much lower buffer energy.
  cfg.design = RouterDesign::DXbar;
  const RunStats dx = run_open_loop(cfg);
  EXPECT_LT(dx.energy_buffer_nj, s.energy_buffer_nj * 0.5);
}

}  // namespace
}  // namespace dxbar
