// Closed-loop request-reply workload (DESIGN.md section 12): the
// fixed-bucket latency histogram, the protocol-deadlock-freedom
// invariant (forward progress at saturation for every design), the
// MLP bound, determinism across execution strategies (shards, sweep
// threads, replica batches), snapshot/restore, and the point-level
// ClosedLoopCampaign resume format.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <vector>

#include "sim/closed_loop_campaign.hpp"
#include "sim/sim_runner.hpp"
#include "sim/sweep.hpp"
#include "workload/closed_loop.hpp"
#include "workload/factory.hpp"
#include "common/latency_histogram.hpp"

namespace dxbar {
namespace {

constexpr RouterDesign kAllDesigns[] = {
    RouterDesign::FlitBless, RouterDesign::Scarab,     RouterDesign::Buffered4,
    RouterDesign::Buffered8, RouterDesign::DXbar,      RouterDesign::UnifiedXbar,
    RouterDesign::BufferedVC, RouterDesign::Afc,       RouterDesign::Damq,
    RouterDesign::MinBD,
};

std::string design_name(RouterDesign d) {
  std::string name(to_string(d));
  for (char& c : name) {
    if (c == '-' || c == ' ') c = '_';
  }
  return name;
}

SimConfig closed_loop_cfg(RouterDesign design) {
  SimConfig cfg;
  cfg.design = design;
  cfg.mesh_width = 4;
  cfg.mesh_height = 4;
  cfg.workload = WorkloadKind::ClosedLoop;
  cfg.mlp = 4;
  cfg.service_delay = 8;
  cfg.warmup_cycles = 200;
  cfg.measure_cycles = 1500;
  cfg.seed = 7;
  return cfg;
}

// Every RunStats field including the request-latency block, compared
// exactly: determinism means bit-identical doubles.
void expect_identical(const RunStats& a, const RunStats& b) {
  EXPECT_EQ(a.accepted_load, b.accepted_load);
  EXPECT_EQ(a.avg_packet_latency, b.avg_packet_latency);
  EXPECT_EQ(a.latency_p50, b.latency_p50);
  EXPECT_EQ(a.latency_p99, b.latency_p99);
  EXPECT_EQ(a.packets_completed, b.packets_completed);
  EXPECT_EQ(a.flits_ejected, b.flits_ejected);
  EXPECT_EQ(a.flits_injected, b.flits_injected);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.drained, b.drained);
  EXPECT_EQ(a.energy_buffer_nj, b.energy_buffer_nj);
  EXPECT_EQ(a.energy_crossbar_nj, b.energy_crossbar_nj);
  EXPECT_EQ(a.energy_link_nj, b.energy_link_nj);
  EXPECT_EQ(a.energy_control_nj, b.energy_control_nj);
  EXPECT_EQ(a.requests_completed, b.requests_completed);
  EXPECT_EQ(a.avg_req_latency, b.avg_req_latency);
  EXPECT_EQ(a.req_latency_p50, b.req_latency_p50);
  EXPECT_EQ(a.req_latency_p95, b.req_latency_p95);
  EXPECT_EQ(a.req_latency_p99, b.req_latency_p99);
  EXPECT_EQ(a.req_latency_max, b.req_latency_max);
}

// --- latency histogram ---------------------------------------------------

TEST(LatencyHistogramTest, LowLatenciesAreExact) {
  LatencyHistogram h;
  for (Cycle v = 0; v < LatencyHistogram::kLinearBuckets; ++v) h.record(v);
  EXPECT_EQ(h.count(), LatencyHistogram::kLinearBuckets);
  EXPECT_EQ(h.max(), 127.0);
  EXPECT_EQ(h.mean(), 63.5);
  // 128 samples 0..127: rank(q) = floor(q*127) is exact below the
  // linear/bucketed boundary.
  EXPECT_EQ(h.quantile(0.0), 0.0);
  EXPECT_EQ(h.quantile(0.5), 63.0);
  EXPECT_EQ(h.quantile(1.0), 127.0);
}

TEST(LatencyHistogramTest, QuantileErrorAboveLinearIsBounded) {
  // One sub-bucket spans 2^(major-4) cycles, so the midpoint is within
  // 2^-5 ~ 3.2% of any sample it holds.
  for (Cycle v : {Cycle{1000}, Cycle{12345}, Cycle{1'000'000}}) {
    LatencyHistogram h;
    h.record(v);
    const double q = h.quantile(0.5);
    EXPECT_NEAR(q, static_cast<double>(v),
                0.04 * static_cast<double>(v))
        << "sample " << v;
    EXPECT_EQ(h.max(), static_cast<double>(v));  // max is tracked exactly
  }
}

TEST(LatencyHistogramTest, MergeMatchesCombinedRecording) {
  LatencyHistogram a, b, both;
  for (Cycle v = 0; v < 500; v += 3) {
    a.record(v);
    both.record(v);
  }
  for (Cycle v = 1; v < 90'000; v += 701) {
    b.record(v);
    both.record(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), both.count());
  EXPECT_EQ(a.mean(), both.mean());
  EXPECT_EQ(a.max(), both.max());
  for (double q : {0.0, 0.25, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_EQ(a.quantile(q), both.quantile(q)) << "q=" << q;
  }
}

TEST(LatencyHistogramTest, SaveLoadRoundTripIsBitExact) {
  LatencyHistogram h;
  for (Cycle v = 1; v < 300'000; v += 997) h.record(v);

  SnapshotWriter w;
  h.save(w);
  LatencyHistogram back;
  back.record(42);  // load() must fully reset prior state
  SnapshotReader r(w.data());
  back.load(r);

  EXPECT_EQ(back.count(), h.count());
  EXPECT_EQ(back.mean(), h.mean());
  EXPECT_EQ(back.max(), h.max());
  SnapshotWriter w2;
  back.save(w2);
  EXPECT_EQ(w.data(), w2.data());  // identical sparse encoding
}

TEST(LatencyHistogramTest, BucketIndexHandlesExtremeTail) {
  LatencyHistogram h;
  h.record(~Cycle{0});  // clamps into the final bucket, must not overflow
  h.record(Cycle{1} << 45);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.max(), static_cast<double>(~Cycle{0}));
  EXPECT_GT(h.quantile(0.5), 0.0);
}

// --- protocol deadlock freedom: forward progress at saturation -----------

class ClosedLoopSaturationTest
    : public ::testing::TestWithParam<RouterDesign> {};

TEST_P(ClosedLoopSaturationTest, ForwardProgressAndCleanDrainAtSaturation) {
  // mlp=16 on a 4x4 mesh oversubscribes every design well past
  // saturation; the request->reply cycle must keep completing anyway,
  // and the drain must empty both the network and the reply queue
  // (drained == true is the workload-quiescence statement).
  SimConfig cfg = closed_loop_cfg(GetParam());
  cfg.mlp = 16;
  const RunStats s = run_open_loop(cfg);
  EXPECT_GT(s.requests_completed, 100u) << "no forward progress";
  EXPECT_TRUE(s.drained) << "request-reply cycle failed to drain";
  EXPECT_GT(s.avg_req_latency, 0.0);
  EXPECT_GE(s.req_latency_max, s.req_latency_p99);
  EXPECT_GE(s.req_latency_p99, s.req_latency_p50);
}

INSTANTIATE_TEST_SUITE_P(
    AllDesigns, ClosedLoopSaturationTest, ::testing::ValuesIn(kAllDesigns),
    [](const ::testing::TestParamInfo<RouterDesign>& info) {
      return design_name(info.param);
    });

TEST(ClosedLoopInvariant, OutstandingNeverExceedsMlpBound) {
  SimConfig cfg = closed_loop_cfg(RouterDesign::DXbar);
  cfg.mlp = 3;
  Network net(cfg);
  ClosedLoopWorkload wl(cfg, net.mesh());
  net.set_workload(&wl);
  const std::uint64_t bound =
      static_cast<std::uint64_t>(cfg.num_nodes()) *
      static_cast<std::uint64_t>(cfg.mlp);
  for (int t = 0; t < 2000; ++t) {
    net.step();
    ASSERT_LE(wl.outstanding_total(), bound) << "cycle " << net.now();
  }
  EXPECT_GT(wl.replies_completed(), 0u);
  EXPECT_GE(wl.requests_issued(), wl.replies_completed());
}

// --- coherence-shaped client mix -----------------------------------------

TEST(CoherenceMix, PureReadIssuesNoWritebacksAndMatchesDefaultBitExactly) {
  // read_fraction = 1.0 must short-circuit the bernoulli draw: the run
  // is bit-identical to a config that never mentions the knob, and no
  // writeback traffic exists.
  const SimConfig base = closed_loop_cfg(RouterDesign::DXbar);
  SimConfig pure = base;
  pure.read_fraction = 1.0;
  expect_identical(run_open_loop(base), run_open_loop(pure));

  Network net(base);
  ClosedLoopWorkload wl(base, net.mesh());
  net.set_workload(&wl);
  for (int t = 0; t < 1200; ++t) net.step();
  EXPECT_GT(wl.replies_completed(), 0u);
  EXPECT_EQ(wl.writebacks_issued(), 0u);
}

TEST(CoherenceMix, MixedRunIssuesWritebacksRoughlyAtWriteFraction) {
  SimConfig cfg = closed_loop_cfg(RouterDesign::DXbar);
  cfg.read_fraction = 0.6;
  Network net(cfg);
  ClosedLoopWorkload wl(cfg, net.mesh());
  net.set_workload(&wl);
  for (int t = 0; t < 1500; ++t) net.step();
  ASSERT_GT(wl.requests_issued(), 500u);
  EXPECT_GT(wl.writebacks_issued(), 0u);
  // One writeback per write transaction: the ratio concentrates near
  // 1 - read_fraction (loose 3-sigma-ish bounds, deterministic seed).
  const double ratio = static_cast<double>(wl.writebacks_issued()) /
                       static_cast<double>(wl.requests_issued());
  EXPECT_GT(ratio, 0.30);
  EXPECT_LT(ratio, 0.50);
}

class CoherenceMixDrainTest : public ::testing::TestWithParam<RouterDesign> {};

TEST_P(CoherenceMixDrainTest, MixedTrafficDrainsAndMakesForwardProgress) {
  // The deadlock-freedom argument must survive the mix: writebacks are
  // terminal and hold no MSHR, so the request->reply cycle still drains
  // on every design, including the new shared-buffer and side-buffer
  // routers.
  SimConfig cfg = closed_loop_cfg(GetParam());
  cfg.read_fraction = 0.5;
  cfg.mlp = 8;
  const RunStats s = run_open_loop(cfg);
  EXPECT_GT(s.requests_completed, 100u) << "no forward progress";
  EXPECT_TRUE(s.drained) << "mixed-traffic run failed to drain";
}

INSTANTIATE_TEST_SUITE_P(
    Designs, CoherenceMixDrainTest,
    ::testing::Values(RouterDesign::DXbar, RouterDesign::BufferedVC,
                      RouterDesign::Damq, RouterDesign::MinBD),
    [](const ::testing::TestParamInfo<RouterDesign>& info) {
      return design_name(info.param);
    });

TEST(CoherenceMix, MidRunSaveRestoreResumesBitExactly) {
  // The v6 snapshot block (per-reply lengths, writeback counter) must
  // round-trip: resume mid-measurement under a mixed workload and land
  // on the uninterrupted run's stats.
  SimConfig cfg = closed_loop_cfg(RouterDesign::DXbar);
  cfg.read_fraction = 0.7;

  Network net(cfg);
  auto wl = make_workload(cfg, net.mesh());
  net.set_workload(wl.get());
  advance_open_loop(net, 700);

  const std::vector<std::uint8_t> net_bytes = net.snapshot();
  SnapshotWriter w;
  wl->save_state(w);
  const RunStats straight = finish_open_loop(net, *wl);

  Network resumed(cfg);
  auto wl2 = make_workload(cfg, resumed.mesh());
  resumed.set_workload(wl2.get());
  resumed.restore(net_bytes);
  SnapshotReader r(w.data());
  wl2->load_state(r);
  expect_identical(straight, finish_open_loop(resumed, *wl2));
}

// --- determinism across execution strategies -----------------------------

TEST(ClosedLoopDeterminism, RepeatRunsAreBitIdentical) {
  const SimConfig cfg = closed_loop_cfg(RouterDesign::UnifiedXbar);
  expect_identical(run_open_loop(cfg), run_open_loop(cfg));
}

TEST(ClosedLoopDeterminism, ShardedRunMatchesSingleThreaded) {
  for (RouterDesign d : {RouterDesign::DXbar, RouterDesign::BufferedVC}) {
    SimConfig cfg = closed_loop_cfg(d);
    cfg.shards = 1;
    const RunStats serial = run_open_loop(cfg);
    for (int shards : {2, 4}) {
      SCOPED_TRACE(design_name(d) + " shards=" + std::to_string(shards));
      cfg.shards = shards;
      expect_identical(serial, run_open_loop(cfg));
    }
  }
}

TEST(ClosedLoopDeterminism, SweepResultsIndependentOfThreadCount) {
  std::vector<SimConfig> configs;
  for (RouterDesign d : {RouterDesign::DXbar, RouterDesign::Buffered4}) {
    for (int mlp : {1, 4, 16}) {
      SimConfig cfg = closed_loop_cfg(d);
      cfg.mlp = mlp;
      configs.push_back(cfg);
    }
  }
  const std::vector<RunStats> one = run_sweep(configs, 1);
  const std::vector<RunStats> four = run_sweep(configs, 4);
  ASSERT_EQ(one.size(), configs.size());
  ASSERT_EQ(four.size(), configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    SCOPED_TRACE("sweep point " + std::to_string(i));
    expect_identical(one[i], four[i]);
  }
}

TEST(ClosedLoopReplicaSweep, SeedReplicasMatchSerialRuns) {
  // The --seeds engine: measure_seed replicas of one closed-loop point
  // forked from one shared warmup must reproduce each replica's solo run.
  std::vector<SimConfig> configs;
  for (std::uint64_t ms : {1u, 2u, 3u}) {
    SimConfig cfg = closed_loop_cfg(RouterDesign::DXbar);
    cfg.measure_seed = ms;
    configs.push_back(cfg);
  }
  SweepReport report;
  const std::vector<RunStats> forked =
      run_sweep(configs, 1, nullptr, &report);
  ASSERT_EQ(report.groups.size(), 1u);
  ASSERT_EQ(forked.size(), configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    SCOPED_TRACE("replica " + std::to_string(i));
    expect_identical(run_open_loop(configs[i]), forked[i]);
  }
}

TEST(ClosedLoopSnapshot, MidRunSaveRestoreResumesBitExactly) {
  // Mirror of the campaign checkpoint protocol: network snapshot plus
  // the workload's WKLD state (MSHRs, in-flight txns, pending replies,
  // histogram) taken mid-measurement must resume into the exact stats
  // of the uninterrupted run.
  const SimConfig cfg = closed_loop_cfg(RouterDesign::DXbar);

  Network net(cfg);
  auto wl = make_workload(cfg, net.mesh());
  ASSERT_TRUE(wl->snapshot_supported());
  net.set_workload(wl.get());
  advance_open_loop(net, 700);  // mid-measurement (warmup ends at 200)

  const std::vector<std::uint8_t> net_bytes = net.snapshot();
  SnapshotWriter w;
  wl->save_state(w);
  const RunStats straight = finish_open_loop(net, *wl);

  Network resumed(cfg);
  auto wl2 = make_workload(cfg, resumed.mesh());
  resumed.set_workload(wl2.get());
  resumed.restore(net_bytes);
  SnapshotReader r(w.data());
  wl2->load_state(r);
  expect_identical(straight, finish_open_loop(resumed, *wl2));
}

// --- ClosedLoopCampaign: point-level resume ------------------------------

ClosedLoopResult sample_result(std::uint64_t i) {
  ClosedLoopResult r;
  r.completion_cycles = 1000 + i;
  r.finished = true;
  r.packets = 50 * (i + 1);
  r.energy_nj = 1.25 * static_cast<double>(i);
  r.energy_per_packet_nj = 0.5 + static_cast<double>(i);
  r.avg_packet_latency = 20.0 + static_cast<double>(i);
  return r;
}

void expect_result(const ClosedLoopResult& a, const ClosedLoopResult& b) {
  EXPECT_EQ(a.completion_cycles, b.completion_cycles);
  EXPECT_EQ(a.finished, b.finished);
  EXPECT_EQ(a.packets, b.packets);
  EXPECT_EQ(a.energy_nj, b.energy_nj);
  EXPECT_EQ(a.energy_per_packet_nj, b.energy_per_packet_nj);
  EXPECT_EQ(a.avg_packet_latency, b.avg_packet_latency);
}

TEST(ClosedLoopCampaignTest, ResumeSkipsCompletedPoints) {
  const std::string dir = ::testing::TempDir() + "/clc_resume";
  std::filesystem::remove_all(dir);  // stale state from a prior run
  std::filesystem::create_directories(dir);
  constexpr std::uint64_t kFp = 0xfeedface;

  {
    ClosedLoopCampaign c(4, dir, kFp);
    EXPECT_EQ(c.completed(), 0u);
    c.record(0, sample_result(0));
    c.record(2, sample_result(2));
    EXPECT_EQ(c.completed(), 2u);
  }
  {
    ClosedLoopCampaign c(4, dir, kFp);
    EXPECT_EQ(c.completed(), 2u);
    ASSERT_TRUE(c.results()[0].has_value());
    EXPECT_FALSE(c.results()[1].has_value());
    ASSERT_TRUE(c.results()[2].has_value());
    expect_result(*c.results()[0], sample_result(0));
    expect_result(*c.results()[2], sample_result(2));
    c.record(1, sample_result(1));
    c.record(3, sample_result(3));
  }
  ClosedLoopCampaign c(4, dir, kFp);
  EXPECT_EQ(c.completed(), 4u);
  for (std::uint64_t i = 0; i < 4; ++i) {
    expect_result(*c.results()[i], sample_result(i));
  }
}

TEST(ClosedLoopCampaignTest, ForeignFingerprintFramesAreIgnored) {
  const std::string dir = ::testing::TempDir() + "/clc_foreign";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  {
    ClosedLoopCampaign quick(3, dir, /*fingerprint=*/111);
    quick.record(0, sample_result(0));
    quick.record(1, sample_result(1));
  }
  // A full run sharing the directory: the quick run's frames must not
  // leak in as completed points.
  {
    ClosedLoopCampaign full(3, dir, /*fingerprint=*/222);
    EXPECT_EQ(full.completed(), 0u);
    full.record(2, sample_result(7));
  }
  // And back: each fingerprint still sees exactly its own frames.
  ClosedLoopCampaign quick(3, dir, 111);
  EXPECT_EQ(quick.completed(), 2u);
  ClosedLoopCampaign full(3, dir, 222);
  ASSERT_EQ(full.completed(), 1u);
  expect_result(*full.results()[2], sample_result(7));
}

TEST(ClosedLoopCampaignTest, TornTailIsDroppedNotFatal) {
  const std::string dir = ::testing::TempDir() + "/clc_torn";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  constexpr std::uint64_t kFp = 42;

  {
    ClosedLoopCampaign c(2, dir, kFp);
    c.record(0, sample_result(0));
  }
  {
    // Simulate a crash mid-append: garbage after the last valid frame.
    std::ofstream out(dir + "/results.bin",
                      std::ios::binary | std::ios::app);
    out.write("\x13\x37\x13", 3);
  }
  ClosedLoopCampaign c(2, dir, kFp);
  EXPECT_EQ(c.completed(), 1u);
  expect_result(*c.results()[0], sample_result(0));
}

}  // namespace
}  // namespace dxbar
