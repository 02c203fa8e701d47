// Tests for observability features (link usage, batch-means stddev) and
// deeper edge-case coverage: exhaustive unified-allocator enumeration,
// corner-router behaviour, SCARAB retransmit-buffer throttling, splash
// trace-generation properties.
#include <gtest/gtest.h>

#include "alloc/unified_allocator.hpp"
#include "sim/network.hpp"
#include "sim/sim_runner.hpp"
#include "traffic/splash.hpp"
#include "traffic/trace_io.hpp"

namespace dxbar {
namespace {

// ---- link usage -------------------------------------------------------------

TEST(LinkUsage, CountsMatchDeliveredHops) {
  SimConfig cfg;
  cfg.design = RouterDesign::DXbar;
  cfg.mesh_width = 4;
  cfg.mesh_height = 4;
  cfg.packet_length = 1;
  cfg.warmup_cycles = 0;
  cfg.measure_cycles = 100000;

  Network net(cfg);
  const Mesh m(4, 4);
  TraceWorkload w({{0, m.node(0, 0), m.node(3, 0), 1},
                   {0, m.node(0, 3), m.node(0, 0), 1}});
  net.set_workload(&w);
  Cycle t = 0;
  while ((!w.finished() || !net.idle()) && t < 1000) {
    net.step();
    ++t;
  }
  ASSERT_TRUE(net.idle());

  std::uint64_t total = 0;
  std::uint64_t east_row0 = 0;
  for (const auto& u : net.link_usage()) {
    total += u.flits;
    const Coord c = m.coord(u.link.node);
    if (c.y == 0 && u.link.dir == Direction::East) east_row0 += u.flits;
  }
  EXPECT_EQ(total, 6u);      // 3 east hops + 3 south hops
  EXPECT_EQ(east_row0, 3u);  // the eastbound packet's exact path
}

TEST(LinkUsage, EveryMeshLinkListedOnce) {
  SimConfig cfg;
  Network net(cfg);
  const auto usage = net.link_usage();
  EXPECT_EQ(usage.size(), Mesh(8, 8).all_links().size());
}

// ---- batch-means stddev -------------------------------------------------------

TEST(BatchStats, SteadyLoadHasSmallVariance) {
  SimConfig cfg;
  cfg.design = RouterDesign::DXbar;
  cfg.offered_load = 0.2;
  cfg.warmup_cycles = 500;
  cfg.measure_cycles = 4000;
  const RunStats s = run_open_loop(cfg);
  EXPECT_GT(s.accepted_load_stddev, 0.0);
  EXPECT_LT(s.accepted_load_stddev, 0.1 * s.accepted_load)
      << "steady Bernoulli traffic should have tight batches";
}

TEST(BatchStats, ColdStartInflatesVariance) {
  // No warmup: the first batches see an empty network filling up.
  SimConfig steady;
  steady.design = RouterDesign::Buffered4;
  steady.offered_load = 0.25;
  steady.warmup_cycles = 800;
  steady.measure_cycles = 2000;
  SimConfig cold = steady;
  cold.warmup_cycles = 0;
  const RunStats a = run_open_loop(steady);
  const RunStats b = run_open_loop(cold);
  EXPECT_LT(a.accepted_load_stddev, b.accepted_load_stddev * 1.5 + 1e-9);
}

// ---- exhaustive unified-allocator enumeration ---------------------------------

TEST(UnifiedExhaustive, TwoPortsAllMaskCombinations) {
  // Enumerate every (incoming, buffered) request-mask combination for
  // two active ports; grants must always be legal and never starve a
  // solo uncontested requester.
  UnifiedAllocator alloc;
  for (std::uint32_t m1 = 0; m1 < 32; ++m1) {
    for (std::uint32_t m2 = 0; m2 < 32; ++m2) {
      for (std::uint32_t m3 = 0; m3 < 32; ++m3) {
        std::array<UnifiedPortRequest, kNumPorts> req{};
        if (m1) req[0].incoming = {true, m1, 10, false};
        if (m2) req[0].buffered = {true, m2, 20, false};
        if (m3) req[3].incoming = {true, m3, 30, false};
        const UnifiedGrants g = alloc.allocate(req, true);

        // Legality.
        std::array<int, kNumPorts> owner;
        owner.fill(-1);
        for (int p = 0; p < kNumPorts; ++p) {
          const auto& pg = g.port[static_cast<std::size_t>(p)];
          const auto& pr = req[static_cast<std::size_t>(p)];
          if (pg.incoming_out >= 0) {
            ASSERT_TRUE(pr.incoming.valid);
            ASSERT_TRUE(pr.incoming.request_mask & (1u << pg.incoming_out));
            ASSERT_EQ(owner[static_cast<std::size_t>(pg.incoming_out)], -1);
            owner[static_cast<std::size_t>(pg.incoming_out)] = p;
          }
          if (pg.buffered_out >= 0) {
            ASSERT_TRUE(pr.buffered.valid);
            ASSERT_TRUE(pr.buffered.request_mask & (1u << pg.buffered_out));
            ASSERT_EQ(owner[static_cast<std::size_t>(pg.buffered_out)], -1);
            owner[static_cast<std::size_t>(pg.buffered_out)] = p;
          }
        }
        // Work conservation: if any request exists, someone is granted.
        if ((m1 | m2 | m3) != 0) {
          bool any = false;
          for (const auto& pg : g.port) {
            any = any || pg.incoming_out >= 0 || pg.buffered_out >= 0;
          }
          ASSERT_TRUE(any);
        }
      }
    }
  }
}

// ---- corner routers -------------------------------------------------------------

TEST(CornerRouters, BlessCornerInjectionRespectsDegree) {
  // Flood a 2x2 mesh (every router is a corner, degree 2) with Bless:
  // invariants must hold with only two links per router.
  SimConfig cfg;
  cfg.design = RouterDesign::FlitBless;
  cfg.mesh_width = 2;
  cfg.mesh_height = 2;
  cfg.offered_load = 0.9;
  cfg.packet_length = 1;
  cfg.warmup_cycles = 0;
  cfg.measure_cycles = 2000;

  Network net(cfg);
  const Mesh m(2, 2);
  SyntheticWorkload w(cfg, m);
  net.set_workload(&w);
  for (Cycle t = 0; t < 2000; ++t) net.step();
  w.set_injection_enabled(false);
  for (Cycle t = 0; t < 20000 && !net.idle(); ++t) net.step();
  ASSERT_TRUE(net.idle());
  EXPECT_EQ(net.flits_created(), net.flits_delivered());
}

// ---- SCARAB retransmit buffer -----------------------------------------------------

TEST(ScarabThrottle, RetransmitBufferCapsOutstandingFlits) {
  // Tiny retransmit buffer -> injection self-throttles well below the
  // same config with a large buffer.
  SimConfig cfg;
  cfg.design = RouterDesign::Scarab;
  cfg.offered_load = 0.4;
  cfg.packet_length = 5;
  cfg.warmup_cycles = 300;
  cfg.measure_cycles = 1500;

  cfg.retransmit_buffer = 1;  // 5 outstanding flits per node
  const RunStats tight = run_open_loop(cfg);
  cfg.retransmit_buffer = 64;
  const RunStats roomy = run_open_loop(cfg);
  // A 1-packet buffer caps each node at 5 in-flight flits, visibly below
  // the unconstrained rate (though not drastically: self-throttling also
  // reduces drop thrash near saturation).
  EXPECT_LT(tight.accepted_load, roomy.accepted_load - 0.02);
}

// ---- splash trace generation --------------------------------------------------------

TEST(SplashTrace, GeneratedTraceIsWellFormed) {
  SimConfig cfg;
  cfg.transactions = 20;
  const Mesh m(8, 8);
  const auto trace =
      generate_splash_trace(*find_splash_profile("Water"), cfg, m);
  ASSERT_FALSE(trace.empty());
  Cycle prev = 0;
  for (const TraceEntry& e : trace) {
    EXPECT_GE(e.cycle, prev);
    prev = e.cycle;
    EXPECT_LT(e.src, 64u);
    EXPECT_LT(e.dst, 64u);
    EXPECT_NE(e.src, e.dst);
    EXPECT_TRUE(e.length == 1 || e.length == 5);
  }
}

TEST(SplashTrace, DeterministicForSeed) {
  SimConfig cfg;
  cfg.transactions = 10;
  const Mesh m(8, 8);
  const SplashProfile& small = *find_splash_profile("FFT");
  const auto a = generate_splash_trace(small, cfg, m);
  const auto b = generate_splash_trace(small, cfg, m);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));

  cfg.seed = 999;
  const auto c = generate_splash_trace(small, cfg, m);
  EXPECT_FALSE(a.size() == c.size() &&
               std::equal(a.begin(), a.end(), c.begin()));
}

TEST(SplashTrace, ReplayDeliversEveryPacket) {
  SimConfig cfg;
  cfg.design = RouterDesign::Buffered8;
  cfg.transactions = 10;
  cfg.warmup_cycles = 0;  // the whole replay is the window
  cfg.measure_cycles = 2'000'000;
  const Mesh m(8, 8);
  auto trace = generate_splash_trace(*find_splash_profile("LU"), cfg, m);
  const std::size_t n = trace.size();
  TraceWorkload replay(std::move(trace));
  const RunStats r = run_open_loop(cfg, replay);
  EXPECT_TRUE(r.drained);
  EXPECT_EQ(r.packets_completed, n);
}

}  // namespace
}  // namespace dxbar
