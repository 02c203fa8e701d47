// Snapshot/restore subsystem tests.
//
// The keystone property: running N cycles, snapshotting, restoring (in
// process or from bytes into a fresh network) and running M more cycles
// produces bit-identical RunStats to the straight N+M run — for every
// router design, with crossbar faults mid-BIST, with link faults, and
// with SCARAB retransmissions in flight.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/dxbar.hpp"
#include "fault/link_faults.hpp"
#include "routing/route_cache.hpp"
#include "routing/route_table.hpp"

namespace dxbar {
namespace {

constexpr std::uint32_t kSecWorkload = section_tag("WKLD");

std::vector<std::uint8_t> stats_bytes(const RunStats& s) {
  SnapshotWriter w;
  save_run_stats(w, s);
  return w.take();
}

std::vector<std::uint8_t> snapshot_with_workload(
    const Network& net, const SyntheticWorkload& workload) {
  SnapshotWriter w;
  net.save(w);
  w.begin_section(kSecWorkload);
  workload.save_state(w);
  w.end_section();
  return w.take();
}

void restore_with_workload(Network& net, SyntheticWorkload& workload,
                           const std::vector<std::uint8_t>& bytes) {
  SnapshotReader r(bytes);
  net.load(r);
  (void)r.expect_section(kSecWorkload);
  workload.load_state(r);
}

SimConfig small_cfg(RouterDesign design) {
  SimConfig cfg;
  cfg.mesh_width = 4;
  cfg.mesh_height = 4;
  cfg.design = design;
  cfg.pattern = TrafficPattern::UniformRandom;
  cfg.offered_load = 0.20;
  cfg.warmup_cycles = 200;
  cfg.measure_cycles = 300;
  return cfg;
}

/// Straight run vs snapshot-at-`snap_at` + bytes-restore-into-fresh run.
void expect_fork_bit_exact(const SimConfig& cfg, Cycle snap_at) {
  const RunStats straight = run_open_loop(cfg);

  Network net(cfg);
  SyntheticWorkload workload(cfg, net.mesh());
  net.set_workload(&workload);
  advance_open_loop(net, snap_at);
  ASSERT_EQ(net.now(), snap_at);
  const auto bytes = snapshot_with_workload(net, workload);

  Network fresh(cfg);
  SyntheticWorkload fresh_workload(cfg, fresh.mesh());
  fresh.set_workload(&fresh_workload);
  restore_with_workload(fresh, fresh_workload, bytes);
  EXPECT_EQ(fresh.now(), snap_at);
  EXPECT_EQ(fresh.flits_created(), net.flits_created());

  const RunStats resumed = finish_open_loop(fresh, fresh_workload);
  EXPECT_EQ(stats_bytes(resumed), stats_bytes(straight));
}

// --- snapshot x sharding interplay ------------------------------------
//
// Shard layout is structural, not serialized: a DXSN checkpoint taken at
// any shard count must restore into a network running at any other, and
// the resumed run must match the straight single-threaded run bit-exactly.
// Snapshots happen at step boundaries, where per-shard transients (staged
// drops, unfolded energy counts, injection tallies) are all committed, so
// there is nothing shard-shaped to serialize.
void expect_cross_shard_fork_bit_exact(SimConfig cfg, Cycle snap_at,
                                       int save_shards, int restore_shards) {
  cfg.shards = 1;
  const RunStats straight = run_open_loop(cfg);

  cfg.shards = save_shards;
  Network net(cfg);
  SyntheticWorkload workload(cfg, net.mesh());
  net.set_workload(&workload);
  advance_open_loop(net, snap_at);
  ASSERT_EQ(net.now(), snap_at);
  const auto bytes = snapshot_with_workload(net, workload);

  cfg.shards = restore_shards;
  Network fresh(cfg);
  SyntheticWorkload fresh_workload(cfg, fresh.mesh());
  fresh.set_workload(&fresh_workload);
  restore_with_workload(fresh, fresh_workload, bytes);
  EXPECT_EQ(fresh.now(), snap_at);
  EXPECT_EQ(fresh.flits_created(), net.flits_created());

  const RunStats resumed = finish_open_loop(fresh, fresh_workload);
  EXPECT_EQ(stats_bytes(resumed), stats_bytes(straight));
}

class ShardSnapshotInterplayTest
    : public ::testing::TestWithParam<RouterDesign> {};

TEST_P(ShardSnapshotInterplayTest, SaveShardedRestoreAtDifferentShardCount) {
  SimConfig cfg = small_cfg(GetParam());
  cfg.mesh_width = 8;
  cfg.mesh_height = 8;
  cfg.offered_load = 0.30;
  // 4-way save -> 2-way restore, mid-measurement (retransmissions and
  // BIST-free steady state in flight).
  expect_cross_shard_fork_bit_exact(cfg, 350, 4, 2);
  // Sharded save -> single-threaded restore and the reverse.
  expect_cross_shard_fork_bit_exact(cfg, 350, 2, 1);
  expect_cross_shard_fork_bit_exact(cfg, 350, 1, 4);
}

INSTANTIATE_TEST_SUITE_P(Designs, ShardSnapshotInterplayTest,
                         ::testing::Values(RouterDesign::DXbar,
                                           RouterDesign::Scarab,
                                           RouterDesign::BufferedVC),
                         [](const auto& info) {
                           std::string name;
                           for (char c : to_string(info.param)) {
                             if (std::isalnum(static_cast<unsigned char>(c))) {
                               name += c;
                             }
                           }
                           return name;
                         });

class SnapshotDesignTest : public ::testing::TestWithParam<RouterDesign> {};

TEST_P(SnapshotDesignTest, MidMeasureForkIsBitExact) {
  expect_fork_bit_exact(small_cfg(GetParam()), 350);
}

TEST_P(SnapshotDesignTest, MidWarmupForkIsBitExact) {
  expect_fork_bit_exact(small_cfg(GetParam()), 120);
}

TEST_P(SnapshotDesignTest, InProcessRestoreRewindsAFinishedNetwork) {
  const SimConfig cfg = small_cfg(GetParam());
  Network net(cfg);
  SyntheticWorkload workload(cfg, net.mesh());
  net.set_workload(&workload);
  advance_open_loop(net, 350);
  const auto bytes = snapshot_with_workload(net, workload);

  // Finish the run (drains the network, disables injection), then rewind
  // the SAME network/workload pair to the snapshot and finish again: the
  // two finishes must agree bit-exactly with each other and with a cold
  // run — save() must not perturb and load() must fully reset.
  const RunStats first = finish_open_loop(net, workload);
  restore_with_workload(net, workload, bytes);
  const RunStats second = finish_open_loop(net, workload);
  EXPECT_EQ(stats_bytes(first), stats_bytes(second));
  EXPECT_EQ(stats_bytes(first), stats_bytes(run_open_loop(cfg)));
}

INSTANTIATE_TEST_SUITE_P(
    Designs, SnapshotDesignTest,
    ::testing::Values(RouterDesign::FlitBless, RouterDesign::Scarab,
                      RouterDesign::Buffered4, RouterDesign::Buffered8,
                      RouterDesign::DXbar, RouterDesign::UnifiedXbar,
                      RouterDesign::BufferedVC, RouterDesign::Afc,
                      RouterDesign::Damq, RouterDesign::MinBD),
    [](const auto& info) {
      std::string name;
      for (char c : to_string(info.param)) {
        if (std::isalnum(static_cast<unsigned char>(c))) name += c;
      }
      return name;
    });

TEST(SnapshotFaults, CrossbarFaultsWithBistTimersMidFlight) {
  SimConfig cfg = small_cfg(RouterDesign::DXbar);
  cfg.fault_fraction = 0.25;
  // Onsets scattered across the run with a long detection delay, so at
  // the snapshot point some faults have manifested but are not yet
  // detected — the restore must reproduce those pending BIST timers.
  cfg.fault_onset_spread = 400;
  cfg.fault_detect_delay = 150;
  expect_fork_bit_exact(cfg, 300);
}

TEST(SnapshotFaults, LinkFaultedTopologyForkIsBitExact) {
  SimConfig cfg = small_cfg(RouterDesign::DXbar);
  cfg.link_fault_fraction = 0.2;
  expect_fork_bit_exact(cfg, 350);
}

TEST(SnapshotFaults, ScarabRetransmissionsInFlight) {
  SimConfig cfg = small_cfg(RouterDesign::Scarab);
  cfg.offered_load = 0.35;     // past SCARAB's comfort zone: forces drops
  cfg.retransmit_buffer = 4;   // small, so staging backs up too
  expect_fork_bit_exact(cfg, 350);
}

TEST(SnapshotFaults, TorusForkIsBitExact) {
  SimConfig cfg = small_cfg(RouterDesign::Scarab);
  cfg.torus = true;
  ASSERT_EQ(cfg.validate(), "");
  expect_fork_bit_exact(cfg, 350);
}

// --- convenience byte API ------------------------------------------------

TEST(Snapshot, RestoreBytesReproducesDrainTrajectory) {
  const SimConfig cfg = small_cfg(RouterDesign::DXbar);
  Network net(cfg);
  SyntheticWorkload workload(cfg, net.mesh());
  net.set_workload(&workload);
  advance_open_loop(net, 350);
  net.set_workload(nullptr);  // no more injection: pure drain from here

  Network fresh(cfg);
  fresh.restore(net.snapshot());
  for (int t = 0; t < 200; ++t) {
    net.step();
    fresh.step();
  }
  EXPECT_EQ(fresh.now(), net.now());
  EXPECT_EQ(fresh.flits_created(), net.flits_created());
  EXPECT_EQ(fresh.flits_delivered(), net.flits_delivered());
  EXPECT_EQ(fresh.packets_delivered(), net.packets_delivered());
  EXPECT_EQ(fresh.energy().total_nj(), net.energy().total_nj());
}

// --- error handling ------------------------------------------------------

TEST(SnapshotErrors, BadMagicIsRejected) {
  Network net(small_cfg(RouterDesign::DXbar));
  auto bytes = net.snapshot();
  bytes[0] ^= 0xFF;
  Network other(small_cfg(RouterDesign::DXbar));
  EXPECT_THROW(other.restore(bytes), SnapshotError);
}

TEST(SnapshotErrors, UnsupportedVersionIsRejected) {
  Network net(small_cfg(RouterDesign::DXbar));
  auto bytes = net.snapshot();
  bytes[4] = 0x7F;  // version lives right after the u32 magic
  bytes[5] = 0x00;
  Network other(small_cfg(RouterDesign::DXbar));
  EXPECT_THROW(other.restore(bytes), SnapshotError);
}

TEST(SnapshotErrors, TruncatedStreamIsRejected) {
  Network net(small_cfg(RouterDesign::DXbar));
  auto bytes = net.snapshot();
  bytes.resize(bytes.size() / 2);
  Network other(small_cfg(RouterDesign::DXbar));
  EXPECT_THROW(other.restore(bytes), SnapshotError);
}

TEST(SnapshotErrors, TamperedSectionTagIsRejected) {
  Network net(small_cfg(RouterDesign::DXbar));
  auto bytes = net.snapshot();
  bytes[8] ^= 0xFF;  // first section tag follows the 8-byte header
  Network other(small_cfg(RouterDesign::DXbar));
  EXPECT_THROW(other.restore(bytes), SnapshotError);
}

TEST(SnapshotErrors, StructuralMismatchIsRejected) {
  Network net(small_cfg(RouterDesign::DXbar));
  const auto bytes = net.snapshot();

  Network other_design(small_cfg(RouterDesign::FlitBless));
  EXPECT_THROW(other_design.restore(bytes), SnapshotError);

  SimConfig other_seed_cfg = small_cfg(RouterDesign::DXbar);
  other_seed_cfg.seed = 99;
  Network other_seed(other_seed_cfg);
  EXPECT_THROW(other_seed.restore(bytes), SnapshotError);
}

// --- value-type round trips ---------------------------------------------

TEST(SnapshotValues, RngRoundTripIsBitExact) {
  Rng a(42);
  for (int i = 0; i < 100; ++i) (void)a.uniform();
  SnapshotWriter w;
  a.save(w);
  const double expect0 = a.uniform();
  const double expect1 = a.uniform();

  Rng b(7);
  SnapshotReader r(w.data());
  b.load(r);
  EXPECT_EQ(b.uniform(), expect0);
  EXPECT_EQ(b.uniform(), expect1);
}

TEST(SnapshotValues, FlitRoundTrip) {
  Flit f;
  f.packet = 12345;
  f.seq = 3;
  f.packet_len = 5;
  f.src = 7;
  f.dst = 42;
  f.injected_at = 1000;
  f.born_at = 998;
  f.vc = 1;
  f.deflections = 2;
  f.retransmits = 1;
  f.hops = 9;
  SnapshotWriter w;
  save_flit(w, f);
  SnapshotReader r(w.data());
  const Flit g = load_flit(r);
  EXPECT_EQ(g.packet, f.packet);
  EXPECT_EQ(g.seq, f.seq);
  EXPECT_EQ(g.packet_len, f.packet_len);
  EXPECT_EQ(g.src, f.src);
  EXPECT_EQ(g.dst, f.dst);
  EXPECT_EQ(g.injected_at, f.injected_at);
  EXPECT_EQ(g.born_at, f.born_at);
  EXPECT_EQ(g.vc, f.vc);
  EXPECT_EQ(g.deflections, f.deflections);
  EXPECT_EQ(g.retransmits, f.retransmits);
  EXPECT_EQ(g.hops, f.hops);
}

TEST(SnapshotValues, ConfigRoundTripAndFingerprint) {
  SimConfig cfg = small_cfg(RouterDesign::UnifiedXbar);
  cfg.torus = false;
  cfg.warmup_load = 0.15;
  SnapshotWriter w;
  save_config(w, cfg);
  SnapshotReader r(w.data());
  const SimConfig back = load_config(r);
  EXPECT_EQ(back.design, cfg.design);
  EXPECT_EQ(back.mesh_width, cfg.mesh_width);
  EXPECT_EQ(back.offered_load, cfg.offered_load);
  EXPECT_EQ(back.warmup_load, cfg.warmup_load);
  EXPECT_EQ(back.seed, cfg.seed);
  EXPECT_EQ(structural_fingerprint(back), structural_fingerprint(cfg));

  // Workload-level fields do not change the structural identity...
  SimConfig fork = cfg;
  fork.offered_load = 0.77;
  fork.warmup_load = -1.0;
  fork.pattern = TrafficPattern::BitReversal;
  fork.drain_cycles += 1000;
  EXPECT_EQ(structural_fingerprint(fork), structural_fingerprint(cfg));

  // ...while structural fields do.
  SimConfig other = cfg;
  other.buffer_depth = 8;
  EXPECT_NE(structural_fingerprint(other), structural_fingerprint(cfg));
  other = cfg;
  other.seed = 2;
  EXPECT_NE(structural_fingerprint(other), structural_fingerprint(cfg));
  other = cfg;
  other.link_fault_fraction = 0.1;
  EXPECT_NE(structural_fingerprint(other), structural_fingerprint(cfg));
}

// tech_node feeds the derived energy/area parameters, so it is part of
// the structural identity and must survive a snapshot round trip.
TEST(SnapshotValues, TechNodeRoundTripAndFingerprint) {
  SimConfig cfg = small_cfg(RouterDesign::DXbar);
  cfg.tech_node = 32;
  SnapshotWriter w;
  save_config(w, cfg);
  SnapshotReader r(w.data());
  const SimConfig back = load_config(r);
  EXPECT_EQ(back.tech_node, 32);
  EXPECT_EQ(structural_fingerprint(back), structural_fingerprint(cfg));

  SimConfig other = cfg;
  other.tech_node = 16;
  EXPECT_NE(structural_fingerprint(other), structural_fingerprint(cfg));
}

// --- warm-start sweeps ---------------------------------------------------

TEST(WarmSweep, BitIdenticalToColdSweep) {
  std::vector<SimConfig> configs;
  for (RouterDesign d : {RouterDesign::DXbar, RouterDesign::Buffered4}) {
    for (double load : {0.10, 0.20, 0.30}) {
      SimConfig cfg = small_cfg(d);
      cfg.offered_load = load;
      cfg.warmup_load = 0.15;
      configs.push_back(cfg);
    }
  }
  // One config without a warmup_load: exercises the cold fallback path
  // inside run_sweep.
  configs.push_back(small_cfg(RouterDesign::FlitBless));

  const auto warm = run_sweep(configs, 1);
  std::vector<RunStats> cold;
  for (const SimConfig& c : configs) cold.push_back(run_open_loop(c));
  ASSERT_EQ(cold.size(), warm.size());
  for (std::size_t i = 0; i < cold.size(); ++i) {
    EXPECT_EQ(stats_bytes(cold[i]), stats_bytes(warm[i])) << "point " << i;
  }
}

TEST(WarmSweep, SharedWarmupActuallyShares) {
  // Distinct warmup_loads must land in distinct groups — otherwise the
  // fork would silently replay the wrong warmup traffic.
  SimConfig a = small_cfg(RouterDesign::DXbar);
  a.warmup_load = 0.10;
  SimConfig b = a;
  b.warmup_load = 0.20;
  const auto ra = run_sweep({a}, 1);
  const auto rb = run_sweep({b}, 1);
  // Same offered_load, different warmup traffic: the measured windows
  // start from different network states and must not match.
  EXPECT_NE(stats_bytes(ra[0]), stats_bytes(rb[0]));
}

// --- route cache/table consistency (satellite: invalidation coverage) ----

TEST(RouteCacheInvalidation, LinkFaultsForceTheBfsTable) {
  const SimConfig healthy = small_cfg(RouterDesign::DXbar);
  Network h(healthy);
  EXPECT_TRUE(h.using_route_cache());
  EXPECT_FALSE(h.using_route_table());

  SimConfig faulted = healthy;
  faulted.link_fault_fraction = 0.2;
  Network f(faulted);
  ASSERT_TRUE(f.link_faults().any());
  EXPECT_TRUE(f.using_route_table());
  EXPECT_FALSE(f.using_route_cache());
}

TEST(RouteCacheInvalidation, DegradedTableNeverServesDeadLinks) {
  const Mesh mesh(6, 6);
  const LinkFaultPlan faults(mesh, 0.2, 7);
  ASSERT_TRUE(faults.any());
  const RouteTable table(
      mesh, [&](NodeId n, Direction d) { return faults.alive(n, d); });
  const RouteCache stale_cache(RoutingAlgo::DOR, mesh);  // healthy-only

  bool stale_cache_crosses_dead_link = false;
  for (NodeId s = 0; s < static_cast<NodeId>(mesh.num_nodes()); ++s) {
    for (NodeId d = 0; d < static_cast<NodeId>(mesh.num_nodes()); ++d) {
      if (s == d) continue;
      for (Direction dir : table.routes(s, d)) {
        EXPECT_TRUE(faults.alive(s, dir))
            << "BFS table routed over dead link at node " << s;
      }
      for (Direction dir : stale_cache.routes(s, d)) {
        if (!faults.alive(s, dir)) stale_cache_crosses_dead_link = true;
      }
    }
  }
  // The healthy-topology cache WOULD cross dead links on this plan —
  // which is exactly why a link-faulted network must never build it
  // (LinkFaultsForceTheBfsTable) and why the structural fingerprint
  // refuses to restore across a link-fault config change.
  EXPECT_TRUE(stale_cache_crosses_dead_link);
}

TEST(RouteCacheInvalidation, RestoreRebuildsTheRightRoutingStructure) {
  SimConfig faulted = small_cfg(RouterDesign::DXbar);
  faulted.link_fault_fraction = 0.2;
  Network net(faulted);
  SyntheticWorkload workload(faulted, net.mesh());
  net.set_workload(&workload);
  advance_open_loop(net, 250);
  const auto bytes = net.snapshot();

  Network fresh(faulted);
  fresh.restore(bytes);
  // A restored network derives its routing structure from construction,
  // so the degraded topology keeps the BFS table (never a stale cache).
  EXPECT_TRUE(fresh.using_route_table());
  EXPECT_FALSE(fresh.using_route_cache());

  // And a healthy network refuses the degraded snapshot outright.
  Network healthy(small_cfg(RouterDesign::DXbar));
  EXPECT_THROW(healthy.restore(bytes), SnapshotError);
}

}  // namespace
}  // namespace dxbar
