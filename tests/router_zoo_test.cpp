// Targeted tests for the round-2 router zoo: the DAMQ shared-buffer
// router (credit-grant flow control over one slot pool) and the minBD
// deflection router (side buffer + golden-flit escape).  The generic
// cross-design suites (conservation, determinism, snapshot, chaos,
// closed-loop) already include both designs; this file checks the
// design-specific invariants those sweeps cannot see — grant
// accounting, dynamic slot sharing, side-buffer capture, golden-epoch
// rotation — plus name-tagged shard-equivalence runs for the TSan job.
// The idle-step suite at the end covers all ten designs: a router with
// no flit to move must leave its state exactly as it was.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "router/afc_router.hpp"
#include "router/damq_router.hpp"
#include "router/factory.hpp"
#include "router/minbd_router.hpp"
#include "sim/network.hpp"
#include "sim/sim_runner.hpp"
#include "stats_compare.hpp"

namespace dxbar {
namespace {

SimConfig zoo_cfg(RouterDesign design, double load) {
  SimConfig cfg;
  cfg.design = design;
  cfg.mesh_width = 6;
  cfg.mesh_height = 6;
  cfg.offered_load = load;
  cfg.warmup_cycles = 100;
  cfg.measure_cycles = 1000;
  cfg.seed = 11;
  return cfg;
}

// --- DAMQ: credit-grant accounting -----------------------------------------

TEST(DamqRouterTest, GrantAccountingInvariantHoldsEveryCycle) {
  // sum_d (queued + outstanding) <= pool at every observable point, and
  // no upstream ever holds more than the grant window.  This is the
  // overflow-freedom argument checked live, not just the router's own
  // debug assert.
  SimConfig cfg = zoo_cfg(RouterDesign::Damq, 0.35);
  Network net(cfg);
  SyntheticWorkload w(cfg, net.mesh());
  net.set_workload(&w);

  for (Cycle t = 0; t < 800; ++t) {
    net.step();
    for (NodeId n = 0; n < static_cast<NodeId>(cfg.num_nodes()); ++n) {
      const auto* r = dynamic_cast<const DamqRouter*>(&net.router(n));
      ASSERT_NE(r, nullptr);
      int claim = 0;
      for (int d = 0; d < kNumLinkDirs; ++d) {
        ASSERT_GE(r->queued(d), 0);
        ASSERT_GE(r->outstanding(d), 0);
        ASSERT_LE(r->outstanding(d), DamqRouter::kGrantWindow);
        claim += r->queued(d) + r->outstanding(d);
      }
      ASSERT_LE(claim, r->pool_slots()) << "node " << n << " cycle " << t;
    }
  }
}

TEST(DamqRouterTest, SlotsMigrateToLoadedInputsBeyondStaticShare) {
  // The point of a DAMQ: under skewed traffic some input's logical FIFO
  // must grow past the static per-port share (pool / 4 = buffer_depth),
  // which a statically partitioned Buffered-4 bank can never do.
  SimConfig cfg = zoo_cfg(RouterDesign::Damq, 0.45);
  cfg.pattern = TrafficPattern::Transpose;
  Network net(cfg);
  SyntheticWorkload w(cfg, net.mesh());
  net.set_workload(&w);

  int max_queued = 0;
  for (Cycle t = 0; t < 1500; ++t) {
    net.step();
    for (NodeId n = 0; n < static_cast<NodeId>(cfg.num_nodes()); ++n) {
      const auto* r = dynamic_cast<const DamqRouter*>(&net.router(n));
      for (int d = 0; d < kNumLinkDirs; ++d) {
        if (r->queued(d) > max_queued) max_queued = r->queued(d);
      }
    }
  }
  EXPECT_GT(max_queued, cfg.buffer_depth)
      << "no input ever outgrew its static share -- pool is not shared";
}

// --- minBD: side buffer and golden epochs ----------------------------------

TEST(MinBDRouterTest, GoldenEpochRotatesThroughAllPacketClasses) {
  // Golden status is (packet & 7) == epoch(now): within one epoch
  // exactly one residue class is golden, and over 8 consecutive epochs
  // every class gets its turn (the livelock-escape fairness argument).
  Flit f;
  for (std::uint64_t pkt = 0; pkt < 8; ++pkt) {
    f.packet = pkt;
    int golden_epochs = 0;
    for (int epoch = 0; epoch < 8; ++epoch) {
      const Cycle now = static_cast<Cycle>(epoch) << 8;
      if (MinBDRouter::is_golden(f, now)) ++golden_epochs;
      // Stable within the epoch.
      EXPECT_EQ(MinBDRouter::is_golden(f, now),
                MinBDRouter::is_golden(f, now + 255));
    }
    EXPECT_EQ(golden_epochs, 1) << "packet " << pkt;
  }
}

TEST(MinBDRouterTest, SideBufferCapturesUnderContention) {
  // At a contended load the side buffers must actually be used — if
  // side_occupancy() never rises the design degenerates to Flit-Bless
  // and the buffered-energy model charges for silicon that does nothing.
  SimConfig cfg = zoo_cfg(RouterDesign::MinBD, 0.40);
  Network net(cfg);
  SyntheticWorkload w(cfg, net.mesh());
  net.set_workload(&w);

  int max_side = 0;
  for (Cycle t = 0; t < 1200; ++t) {
    net.step();
    for (NodeId n = 0; n < static_cast<NodeId>(cfg.num_nodes()); ++n) {
      const auto* r = dynamic_cast<const MinBDRouter*>(&net.router(n));
      ASSERT_NE(r, nullptr);
      if (r->side_occupancy() > max_side) max_side = r->side_occupancy();
    }
  }
  EXPECT_GT(max_side, 0) << "side buffer never captured a deflection";
}

TEST(MinBDRouterTest, BuffersDeflectLessThanPureBless) {
  // Each capture converts a would-be deflection into storage, so at the
  // same operating point minBD's deflection rate must sit below the
  // bufferless baseline's.
  const RunStats minbd = run_open_loop(zoo_cfg(RouterDesign::MinBD, 0.30));
  const RunStats bless =
      run_open_loop(zoo_cfg(RouterDesign::FlitBless, 0.30));
  ASSERT_TRUE(minbd.drained);
  ASSERT_TRUE(bless.drained);
  EXPECT_LT(minbd.deflections_per_flit, bless.deflections_per_flit);
}

// --- shard equivalence (TSan-covered: these names match the CI filter) -----

TEST(DamqShardEquivalence, OneTwoFourShardsAreBitExact) {
  SimConfig cfg = zoo_cfg(RouterDesign::Damq, 0.30);
  cfg.mesh_width = 8;
  cfg.mesh_height = 8;
  cfg.shards = 1;
  const RunStats serial = run_open_loop(cfg);
  for (int shards : {2, 4}) {
    cfg.shards = shards;
    EXPECT_TRUE(same_stats(serial, run_open_loop(cfg))) << "shards=" << shards;
  }
}

TEST(MinBDShardEquivalence, OneTwoFourShardsAreBitExact) {
  SimConfig cfg = zoo_cfg(RouterDesign::MinBD, 0.30);
  cfg.mesh_width = 8;
  cfg.mesh_height = 8;
  cfg.shards = 1;
  const RunStats serial = run_open_loop(cfg);
  for (int shards : {2, 4}) {
    cfg.shards = shards;
    EXPECT_TRUE(same_stats(serial, run_open_loop(cfg))) << "shards=" << shards;
  }
}

// --- snapshot round-trip under live traffic --------------------------------

class ZooSnapshotTest : public ::testing::TestWithParam<RouterDesign> {};

TEST_P(ZooSnapshotTest, MidTrafficSaveRestoreResumesBitExactly) {
  // Save mid-measurement with queues, side buffers, outstanding credits
  // and in-flight channel state all populated; the restored run must
  // finish on identical stats.  (The generic snapshot suite covers the
  // same protocol; this pins it at a hotter operating point for the two
  // new designs specifically.)
  SimConfig cfg = zoo_cfg(GetParam(), 0.40);

  Network net(cfg);
  SyntheticWorkload w(cfg, net.mesh());
  net.set_workload(&w);
  advance_open_loop(net, 600);  // mid-measurement, queues loaded

  SnapshotWriter sw;
  net.save(sw);
  w.save_state(sw);
  const std::vector<std::uint8_t> bytes = sw.take();
  const RunStats straight = finish_open_loop(net, w);

  Network resumed(cfg);
  SyntheticWorkload w2(cfg, resumed.mesh());
  resumed.set_workload(&w2);
  SnapshotReader sr(bytes);
  resumed.load(sr);
  w2.load_state(sr);
  EXPECT_TRUE(same_stats(straight, finish_open_loop(resumed, w2)));
}

INSTANTIATE_TEST_SUITE_P(DamqAndMinBD, ZooSnapshotTest,
                         ::testing::Values(RouterDesign::Damq,
                                           RouterDesign::MinBD),
                         [](const auto& info) {
                           return info.param == RouterDesign::Damq
                                      ? std::string("Damq")
                                      : std::string("MinBD");
                         });

// --- idle steps are exact --------------------------------------------------

std::vector<std::uint8_t> router_state(const Router& r) {
  SnapshotWriter w;
  r.save_state(w);
  return w.take();
}

// AFC keeps its mode control on idle cycles: each one decays the arrival
// EMA toward zero, and a router leaves buffered operation once the EMA
// falls below kBufferOff.  Everything else (the empty buffers) holds.
void expect_afc_idle_steps_follow_mode_control(Network& net, NodeId nodes) {
  // A drained network has left buffered mode already, so one router is
  // put back into it (empty buffers, EMA just under kBufferOn, in
  // AfcRouter::save_state's layout) to exercise the hysteresis; 40
  // steps take that EMA below kBufferOff.
  SnapshotWriter sw;
  for (int d = 0; d < kNumLinkDirs; ++d) sw.u64(0);
  sw.boolean(true);
  sw.f64(AfcRouter::kBufferOn - 0.05);
  sw.u64(1);
  SnapshotReader sr(sw.data());
  net.router(nodes / 2).load_state(sr);
  int left_buffered_mode = 0;
  for (int k = 0; k < 40; ++k) {
    std::vector<double> ema;
    std::vector<bool> mode;
    std::vector<std::uint64_t> switches;
    for (NodeId n = 0; n < nodes; ++n) {
      const auto& r = dynamic_cast<const AfcRouter&>(net.router(n));
      ema.push_back(r.arrival_ema());
      mode.push_back(r.buffered_mode());
      switches.push_back(r.mode_switches());
    }
    net.step();
    for (NodeId n = 0; n < nodes; ++n) {
      const auto& r = dynamic_cast<const AfcRouter&>(net.router(n));
      const double expect_ema = ema[n] * (1.0 - AfcRouter::kEmaAlpha) +
                                0.0 * AfcRouter::kEmaAlpha;
      const bool leaves = mode[n] && expect_ema < AfcRouter::kBufferOff;
      ASSERT_EQ(r.arrival_ema(), expect_ema) << "node " << n;
      ASSERT_EQ(r.buffered_mode(), mode[n] && !leaves) << "node " << n;
      ASSERT_EQ(r.mode_switches(), switches[n] + (leaves ? 1 : 0));
      ASSERT_EQ(r.occupancy(), 0);
      left_buffered_mode += leaves ? 1 : 0;
    }
  }
  EXPECT_EQ(left_buffered_mode, 1);
}

class IdleStepTest : public ::testing::TestWithParam<RouterDesign> {};

TEST_P(IdleStepTest, EmptyRouterStepLeavesStateUnchanged) {
  // A burst leaves arbiter pointers, fairness counts, DAMQ credits and
  // the AFC arrival EMA behind.  Once the network drains, one more step
  // must leave every router's serialized state as it was: a router with
  // no flit to move returns early, and that is exact only if the code it
  // skips would have changed nothing.  DAMQ's grant rotation and AFC's
  // mode control still run and are checked against their own rules.
  const RouterDesign design = GetParam();
  const SimConfig cfg = zoo_cfg(design, 0.45);
  Network net(cfg);
  SyntheticWorkload w(cfg, net.mesh());
  net.set_workload(&w);
  for (Cycle t = 0; t < 300; ++t) net.step();
  w.set_injection_enabled(false);
  for (Cycle t = 0; t < 20000 && !net.idle(); ++t) net.step();
  ASSERT_TRUE(net.idle());
  ASSERT_GT(net.flits_delivered(), 1000u);

  const NodeId nodes = static_cast<NodeId>(cfg.num_nodes());
  Network fresh(cfg);
  std::vector<std::vector<std::uint8_t>> before;
  bool burst_left_state = false;
  for (NodeId n = 0; n < nodes; ++n) {
    before.push_back(router_state(net.router(n)));
    ASSERT_EQ(net.router(n).occupancy(), 0);
    burst_left_state =
        burst_left_state || before.back() != router_state(fresh.router(n));
  }
  // The stateless designs (and minBD, whose only state is its side
  // buffer) hold nothing once drained.
  if (design != RouterDesign::FlitBless && design != RouterDesign::Scarab &&
      design != RouterDesign::MinBD) {
    EXPECT_TRUE(burst_left_state) << "the burst left no state to protect";
  }

  if (design == RouterDesign::Afc) {
    expect_afc_idle_steps_follow_mode_control(net, nodes);
    return;
  }
  if (design == RouterDesign::Damq) {
    // Each idle step rotates the grant sweep's start by one and nothing
    // else, so kNumLinkDirs steps close the cycle.
    for (int k = 0; k < kNumLinkDirs; ++k) {
      std::vector<int> rr;
      for (NodeId n = 0; n < nodes; ++n) {
        rr.push_back(dynamic_cast<const DamqRouter&>(net.router(n)).grant_rr());
      }
      net.step();
      for (NodeId n = 0; n < nodes; ++n) {
        const auto& r = dynamic_cast<const DamqRouter&>(net.router(n));
        ASSERT_EQ(r.grant_rr(), (rr[n] + 1) % kNumLinkDirs) << "node " << n;
      }
    }
  } else {
    net.step();
  }
  for (NodeId n = 0; n < nodes; ++n) {
    EXPECT_EQ(router_state(net.router(n)), before[n]) << "node " << n;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllDesigns, IdleStepTest,
    ::testing::Values(RouterDesign::FlitBless, RouterDesign::Scarab,
                      RouterDesign::Buffered4, RouterDesign::Buffered8,
                      RouterDesign::DXbar, RouterDesign::UnifiedXbar,
                      RouterDesign::BufferedVC, RouterDesign::Afc,
                      RouterDesign::Damq, RouterDesign::MinBD),
    [](const ::testing::TestParamInfo<RouterDesign>& info) {
      std::string name(to_string(info.param));
      for (char& c : name) {
        if (c == '-' || c == ' ') c = '_';
      }
      return name;
    });

/// A link's credit shape: how many independent credit pools its channel
/// carries and the credits each pool starts with.
struct LinkShape {
  int pools;
  int credits_per_pool;
  bool operator==(const LinkShape&) const = default;
};

LinkShape shape_of(const Channel& ch) {
  if (ch.num_vcs() == 0) return {1, ch.credits()};
  for (int vc = 1; vc < ch.num_vcs(); ++vc) {
    EXPECT_EQ(ch.credits_vc(vc), ch.credits_vc(0)) << "vc " << vc;
  }
  return {ch.num_vcs(), ch.credits_vc(0)};
}

// Every design's table facts, written out by hand: the credits each
// link carries and how its channel splits them into pools, the storage
// one router provisions, and whether the design may run where
// turn-model acyclicity is lost (torus wrap links, link faults) — only
// designs with a deflection escape valve may.
TEST(DesignTable, CreditsStorageAndTopologyRulesOfEveryDesign) {
  constexpr int kUnlimited = -1;
  struct Facts {
    RouterDesign design;
    int credits_per_depth;  ///< kUnlimited: no link backpressure
    int slots_per_depth;
    bool escape_valve;
    bool pool_per_vc;  ///< links carry num_vcs pools, else one
  };
  for (const Facts& f :
       {Facts{RouterDesign::FlitBless, kUnlimited, 0, true, false},
        Facts{RouterDesign::Scarab, kUnlimited, 0, true, false},
        Facts{RouterDesign::Buffered4, 1, 4, false, false},
        Facts{RouterDesign::Buffered8, 2, 8, false, false},
        Facts{RouterDesign::DXbar, kUnlimited, 4, true, false},
        Facts{RouterDesign::UnifiedXbar, kUnlimited, 4, true, false},
        Facts{RouterDesign::BufferedVC, 1, 4, false, true},
        Facts{RouterDesign::Afc, kUnlimited, 4, true, false},
        Facts{RouterDesign::Damq, 0, 4, false, false},
        Facts{RouterDesign::MinBD, kUnlimited, 1, true, false}}) {
    for (const int depth : {1, 2, 4, 8}) {
      SCOPED_TRACE(std::string(to_string(f.design)) + " depth " +
                   std::to_string(depth));
      const int credits = f.credits_per_depth == kUnlimited
                              ? kUnlimitedCredits
                              : f.credits_per_depth * depth;
      EXPECT_EQ(link_credits_for(f.design, depth), credits);
      EXPECT_EQ(buffer_slots_per_node(f.design, depth),
                f.slots_per_depth * depth);

      SimConfig cfg;
      cfg.design = f.design;
      cfg.buffer_depth = depth;
      cfg.num_vcs = 1;  // so the VC router's depth split never decides
      EXPECT_EQ(cfg.validate(), "");
      SimConfig torus = cfg;
      torus.torus = true;
      EXPECT_EQ(torus.validate().empty(), f.escape_valve);
      SimConfig faulty = cfg;
      faulty.link_fault_fraction = 0.1;
      EXPECT_EQ(faulty.validate().empty(), f.escape_valve);

      // The channel every link of a built network carries.
      for (const int vcs : {1, 2, 4}) {
        if (depth % vcs != 0) continue;
        SCOPED_TRACE("num_vcs " + std::to_string(vcs));
        SimConfig small = cfg;
        small.num_vcs = vcs;
        small.mesh_width = 3;
        small.mesh_height = 3;
        const LinkShape want = f.pool_per_vc ? LinkShape{vcs, credits / vcs}
                                             : LinkShape{1, credits};
        const Network net(small);
        int links = 0;
        for (NodeId n = 0; n < 9; ++n) {
          for (Direction d : kLinkDirs) {
            const Channel* ch = net.link_channel(n, d);
            if (ch == nullptr) continue;
            ++links;
            EXPECT_EQ(shape_of(*ch), want) << "node " << n;
          }
        }
        EXPECT_EQ(links, 24);  // 12 mesh edges, both directions
      }
    }
  }
}

}  // namespace
}  // namespace dxbar
