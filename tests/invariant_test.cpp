// Cross-cutting invariants: energy-accounting identity, on/off
// backpressure behaviour, DXbar degraded-mode unit behaviour, stall
// escape, multi-flit reassembly.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "router/dxbar_router.hpp"
#include "sim/network.hpp"
#include "sim/sim_runner.hpp"
#include "traffic/trace_io.hpp"

namespace dxbar {
namespace {

// ---- energy accounting identity -----------------------------------------

TEST(EnergyIdentity, CrossbarEnergyMatchesTraversalCounters) {
  SimConfig cfg;
  cfg.design = RouterDesign::DXbar;
  cfg.offered_load = 0.3;
  cfg.warmup_cycles = 0;
  cfg.measure_cycles = 800;

  Network net(cfg);  // energy enabled from cycle 0 by default
  const Mesh m(8, 8);
  SyntheticWorkload w(cfg, m);
  net.set_workload(&w);
  for (Cycle t = 0; t < 800; ++t) net.step();

  std::uint64_t traversals = 0;
  for (NodeId n = 0; n < 64; ++n) {
    const auto& r = dynamic_cast<const DXbarRouter&>(net.router(n));
    traversals += r.primary_traversals() + r.secondary_traversals();
  }
  const double expected =
      static_cast<double>(traversals) * net.energy().params().crossbar_pj * 1e-3;
  EXPECT_NEAR(net.energy().crossbar_nj(), expected, 1e-6);
}

TEST(EnergyIdentity, LinkEnergyMatchesHops) {
  // With energy enabled for the whole run and a fully drained network,
  // link energy must equal (total hops of all packets) x link_pj.
  SimConfig cfg;
  cfg.design = RouterDesign::Buffered4;
  cfg.packet_length = 1;
  cfg.warmup_cycles = 0;
  cfg.measure_cycles = 100000;

  std::vector<TraceEntry> entries;
  Rng rng(3);
  for (Cycle t = 0; t < 200; ++t) {
    const NodeId src = rng.below(64);
    NodeId dst = rng.below(64);
    if (dst == src) dst = (dst + 1) % 64;
    entries.push_back({t, src, dst, 1});
  }

  Network net(cfg);
  TraceWorkload w(std::move(entries));
  net.set_workload(&w);

  std::uint64_t hops = 0;
  class Tap final : public WorkloadModel {
   public:
    Tap(TraceWorkload& inner, std::uint64_t& hops)
        : inner_(inner), hops_(hops) {}
    void begin_cycle(Cycle now, Injector& inject) override {
      inner_.begin_cycle(now, inject);
    }
    void on_packet_delivered(const PacketRecord& rec, Cycle, Injector&)
        override {
      hops_ += rec.total_hops;
    }
   private:
    TraceWorkload& inner_;
    std::uint64_t& hops_;
  } tap(w, hops);
  net.set_workload(&tap);

  Cycle t = 0;
  while ((!w.finished() || !net.idle()) && t < 100000) {
    net.step();
    ++t;
  }
  ASSERT_TRUE(net.idle());
  const double expected =
      static_cast<double>(hops) * net.energy().params().link_pj * 1e-3;
  EXPECT_NEAR(net.energy().link_nj(), expected, 1e-6);
}

// ---- on/off backpressure ---------------------------------------------------

TEST(Backpressure, StopTakesEffectNextCycle) {
  Channel ch(kUnlimitedCredits);
  EXPECT_TRUE(ch.can_send());
  ch.set_stop(true);
  EXPECT_TRUE(ch.can_send());  // not yet visible
  ch.advance();
  EXPECT_FALSE(ch.can_send());
  EXPECT_TRUE(ch.can_send_ignoring_stop());
  ch.set_stop(false);
  ch.advance();
  EXPECT_TRUE(ch.can_send());
}

TEST(Backpressure, StopDoesNotBlockInFlightDelivery) {
  Channel ch(kUnlimitedCredits);
  std::optional<Flit> reg;
  ch.deliver_into(&reg);
  ch.send(Flit{.packet = 1});
  ch.set_stop(true);
  ch.advance();
  ch.advance();
  EXPECT_TRUE(reg.has_value());
}

// ---- DXbar degraded modes ---------------------------------------------------

SimConfig faulty_cfg(double fraction) {
  SimConfig cfg;
  cfg.design = RouterDesign::DXbar;
  cfg.mesh_width = 4;
  cfg.mesh_height = 4;
  cfg.packet_length = 1;
  cfg.fault_fraction = fraction;
  cfg.warmup_cycles = 0;
  cfg.measure_cycles = 100000;
  return cfg;
}

TEST(DXbarFaults, PrimaryFailedRouterBuffersEverything) {
  // Route a stream through one faulty router and check it only uses the
  // secondary crossbar after the fault manifests.
  SimConfig cfg = faulty_cfg(1.0);  // every router faulty
  Network net(cfg);

  // Find a router whose *primary* failed.
  NodeId victim = kInvalidNode;
  for (NodeId n = 0; n < 16; ++n) {
    if (net.faults().at(n).failed == CrossbarKind::Primary) {
      victim = n;
      break;
    }
  }
  ASSERT_NE(victim, kInvalidNode);

  const Mesh m(4, 4);
  const Coord c = m.coord(victim);
  // A packet crossing the victim horizontally (if possible) or ending
  // there.
  std::vector<TraceEntry> entries;
  const NodeId src = m.node(0, c.y);
  const NodeId dst = m.node(3, c.y);
  if (src != dst) entries.push_back({0, src, dst, 1});

  TraceWorkload w(std::move(entries));
  net.set_workload(&w);
  Cycle t = 0;
  while ((!w.finished() || !net.idle()) && t < 2000) {
    net.step();
    ++t;
  }
  ASSERT_TRUE(net.idle());

  const auto& r = dynamic_cast<const DXbarRouter&>(net.router(victim));
  EXPECT_EQ(r.primary_traversals(), 0u)
      << "a dead primary crossbar must never be traversed";
  if (c.x > 0 && c.x < 3) {
    EXPECT_GT(r.secondary_traversals(), 0u);
  }
}

TEST(DXbarFaults, SecondaryFailedRouterUsesPrimaryAfterDetection) {
  SimConfig cfg = faulty_cfg(1.0);
  Network net(cfg);

  NodeId victim = kInvalidNode;
  for (NodeId n = 0; n < 16; ++n) {
    const Coord c = Mesh(4, 4).coord(n);
    if (net.faults().at(n).failed == CrossbarKind::Secondary && c.x > 0 &&
        c.x < 3) {
      victim = n;
      break;
    }
  }
  ASSERT_NE(victim, kInvalidNode);

  const Mesh m(4, 4);
  const Coord c = m.coord(victim);
  std::vector<TraceEntry> entries;
  // Enough traffic through the victim that some flits must be buffered
  // and later leave through the (still working) primary crossbar.
  for (Cycle t = 20; t < 60; ++t) {
    entries.push_back({t, m.node(0, c.y), m.node(3, c.y), 1});
    entries.push_back({t, m.node(c.x, 0), m.node(c.x, 3), 1});
  }
  const std::size_t total = entries.size();

  TraceWorkload w(std::move(entries));
  net.set_workload(&w);
  Cycle t = 0;
  while ((!w.finished() || !net.idle()) && t < 5000) {
    net.step();
    ++t;
  }
  ASSERT_TRUE(net.idle());
  EXPECT_EQ(net.packets_delivered(), total);

  const auto& r = dynamic_cast<const DXbarRouter&>(net.router(victim));
  EXPECT_EQ(r.secondary_traversals(), 0u)
      << "a dead secondary crossbar must never be traversed";
  EXPECT_GT(r.primary_traversals(), 0u);
}

TEST(DXbarFaults, WholeNetworkStillMinimalBelowSaturationWithDor) {
  SimConfig cfg;
  cfg.design = RouterDesign::DXbar;
  cfg.fault_fraction = 1.0;
  cfg.offered_load = 0.15;
  cfg.warmup_cycles = 300;
  cfg.measure_cycles = 1200;
  const RunStats s = run_open_loop(cfg);
  EXPECT_TRUE(s.drained);
  // Degraded-but-buffered routers should barely deflect at this load.
  EXPECT_LT(s.deflections_per_flit, 0.02);
  EXPECT_NEAR(s.accepted_load, 0.15, 0.02);
}

// ---- stall escape -----------------------------------------------------------

TEST(StallEscape, LargerDelayMeansFewerDeflections) {
  SimConfig cfg;
  cfg.design = RouterDesign::DXbar;
  cfg.pattern = TrafficPattern::NonUniformRandom;
  cfg.offered_load = 0.5;
  cfg.warmup_cycles = 300;
  cfg.measure_cycles = 1200;

  cfg.stall_escape_delay = 2;
  const RunStats fast = run_open_loop(cfg);
  cfg.stall_escape_delay = 64;
  const RunStats slow = run_open_loop(cfg);
  EXPECT_GT(fast.deflections_per_flit, slow.deflections_per_flit * 2);
}

// ---- multi-flit reassembly ---------------------------------------------------

TEST(Reassembly, MultiFlitPacketRecordIsConsistent) {
  SimConfig cfg;
  cfg.design = RouterDesign::DXbar;
  cfg.mesh_width = 4;
  cfg.mesh_height = 4;
  cfg.packet_length = 5;
  cfg.warmup_cycles = 0;
  cfg.measure_cycles = 100000;

  Network net(cfg);
  const Mesh m(4, 4);
  TraceWorkload w({{0, m.node(0, 0), m.node(3, 2), 5}});

  PacketRecord got{};
  bool seen = false;
  class Tap final : public WorkloadModel {
   public:
    Tap(TraceWorkload& inner, PacketRecord& rec, bool& seen)
        : inner_(inner), rec_(rec), seen_(seen) {}
    void begin_cycle(Cycle now, Injector& inject) override {
      inner_.begin_cycle(now, inject);
    }
    void on_packet_delivered(const PacketRecord& rec, Cycle,
                             Injector&) override {
      rec_ = rec;
      seen_ = true;
    }
   private:
    TraceWorkload& inner_;
    PacketRecord& rec_;
    bool& seen_;
  } tap(w, got, seen);
  net.set_workload(&tap);

  for (Cycle t = 0; t < 1000 && !(seen && net.idle()); ++t) {
    net.step();
  }
  ASSERT_TRUE(seen);
  EXPECT_EQ(got.length, 5);
  EXPECT_EQ(got.src, m.node(0, 0));
  EXPECT_EQ(got.dst, m.node(3, 2));
  // Uncontended: every flit takes the minimal 5-hop route.
  EXPECT_EQ(got.total_hops, 25u);
  EXPECT_EQ(got.total_deflections, 0u);
  // Serialization: 5 flits leave back-to-back; last flit completes
  // 2*hops + (length-1) cycles after injection.
  EXPECT_EQ(got.network_latency(), 2u * 5u + 4u);
}

// ---- flit-conservation fuzz -------------------------------------------------
//
// Random small configurations across every router design, with and
// without link faults.  After injection stops and the network drains,
// three invariants must hold exactly:
//   1. every created flit was delivered (conservation),
//   2. no router still buffers anything (structural drain),
//   3. the flit arena reports zero live slots — the pool-backed source
//      queues and SCARAB staging leaked nothing.

struct FuzzPoint {
  RouterDesign design;
  double link_fault_fraction;
};

class FlitConservationFuzz : public ::testing::TestWithParam<FuzzPoint> {};

TEST_P(FlitConservationFuzz, DrainsConservesAndFreesPool) {
  const FuzzPoint& p = GetParam();
  // A few random configs per (design, fault) point; seeds fixed so
  // failures reproduce.
  for (std::uint64_t round = 0; round < 3; ++round) {
    Rng rng((static_cast<std::uint64_t>(p.design) << 8 | round) *
                0x9E3779B97F4A7C15ULL +
            1);
    SimConfig cfg;
    cfg.design = p.design;
    cfg.mesh_width = 3 + static_cast<int>(rng.below(3));   // 3..5
    cfg.mesh_height = 3 + static_cast<int>(rng.below(3));  // 3..5
    cfg.offered_load = 0.05 + 0.3 * rng.uniform();
    cfg.packet_length = 1 + static_cast<int>(rng.below(5));
    cfg.buffer_depth = 2 + static_cast<int>(rng.below(4));
    cfg.link_fault_fraction = p.link_fault_fraction;
    cfg.seed = 100 + round;
    SCOPED_TRACE(std::string(to_string(p.design)) + " faults=" +
                 std::to_string(p.link_fault_fraction) + " round=" +
                 std::to_string(round));
    ASSERT_EQ(cfg.validate(), "");

    Network net(cfg);
    SyntheticWorkload w(cfg, net.mesh());
    net.set_workload(&w);
    for (Cycle t = 0; t < 1200; ++t) net.step();
    w.set_injection_enabled(false);
    for (Cycle guard = 0; !net.idle() && guard < 30000; ++guard) net.step();

    ASSERT_TRUE(net.idle());
    EXPECT_EQ(net.flits_created(), net.flits_delivered());
    for (NodeId n = 0; n < static_cast<NodeId>(cfg.num_nodes()); ++n) {
      EXPECT_EQ(net.router(n).occupancy(), 0);
    }
    EXPECT_EQ(net.flit_pool_live(), 0u);
  }
}

// Link-fault variants exist only for designs with a deflection escape
// valve: SimConfig::validate() rejects faults on the credit-only
// designs (Buffered4/8, BufferedVC), which can genuinely deadlock on a
// degraded topology — not a conservation bug, a refused configuration.
INSTANTIATE_TEST_SUITE_P(
    AllDesignsAndFaults, FlitConservationFuzz,
    ::testing::Values(
        FuzzPoint{RouterDesign::FlitBless, 0.0},
        FuzzPoint{RouterDesign::FlitBless, 0.15},
        FuzzPoint{RouterDesign::Scarab, 0.0},
        FuzzPoint{RouterDesign::Scarab, 0.15},
        FuzzPoint{RouterDesign::Buffered4, 0.0},
        FuzzPoint{RouterDesign::Buffered8, 0.0},
        FuzzPoint{RouterDesign::DXbar, 0.0},
        FuzzPoint{RouterDesign::DXbar, 0.15},
        FuzzPoint{RouterDesign::UnifiedXbar, 0.0},
        FuzzPoint{RouterDesign::UnifiedXbar, 0.15},
        FuzzPoint{RouterDesign::BufferedVC, 0.0},
        FuzzPoint{RouterDesign::Afc, 0.0},
        FuzzPoint{RouterDesign::Afc, 0.15},
        FuzzPoint{RouterDesign::Damq, 0.0},
        FuzzPoint{RouterDesign::MinBD, 0.0},
        FuzzPoint{RouterDesign::MinBD, 0.15}),
    [](const ::testing::TestParamInfo<FuzzPoint>& info) {
      std::string name(to_string(info.param.design));
      for (char& c : name) {
        if (c == '-' || c == ' ') c = '_';
      }
      return name +
             (info.param.link_fault_fraction > 0.0 ? "_LinkFaults" : "_Healthy");
    });

}  // namespace
}  // namespace dxbar
