// Closed-loop request-reply workload (DESIGN.md section 12): the
// fixed-bucket latency histogram, the protocol-deadlock-freedom
// invariant (forward progress at saturation for every design), the
// MLP bound, determinism across execution strategies (shards, sweep
// threads, replica batches), snapshot/restore, and the SPLASH points'
// sweeps and the --resume results store.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <vector>

#include "common/latency_histogram.hpp"
#include "sim/results_log.hpp"
#include "sim/sim_runner.hpp"
#include "sim/sweep.hpp"
#include "stats_compare.hpp"
#include "workload/closed_loop.hpp"
#include "workload/factory.hpp"

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
  EXPECT_TRUE(same_stats(run_open_loop(base), run_open_loop(pure)));

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
  EXPECT_TRUE(same_stats(straight, finish_open_loop(resumed, *wl2)));
}

// --- determinism across execution strategies -----------------------------

TEST(ClosedLoopDeterminism, RepeatRunsAreBitIdentical) {
  const SimConfig cfg = closed_loop_cfg(RouterDesign::UnifiedXbar);
  EXPECT_TRUE(same_stats(run_open_loop(cfg), run_open_loop(cfg)));
}

TEST(ClosedLoopDeterminism, ShardedRunMatchesSingleThreaded) {
  for (RouterDesign d : {RouterDesign::DXbar, RouterDesign::BufferedVC}) {
    SimConfig cfg = closed_loop_cfg(d);
    cfg.shards = 1;
    const RunStats serial = run_open_loop(cfg);
    for (int shards : {2, 4}) {
      cfg.shards = shards;
      EXPECT_TRUE(same_stats(serial, run_open_loop(cfg)))
          << design_name(d) << " shards=" << shards;
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
    EXPECT_TRUE(same_stats(one[i], four[i])) << "sweep point " << i;
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
    EXPECT_TRUE(same_stats(run_open_loop(configs[i]), forked[i]))
        << "replica " << i;
  }
}

TEST(ClosedLoopSnapshot, MidRunSaveRestoreResumesBitExactly) {
  // Mirror of the warm-fork snapshot protocol: network snapshot plus
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
  EXPECT_TRUE(same_stats(straight, finish_open_loop(resumed, *wl2)));
}

// --- SPLASH points: sweeps and resume -----------------------------------

/// A small workload=splash point (4x4, a few transactions per node),
/// run to completion under a cycle cap.
SimConfig splash_point(SplashApp app, RouterDesign design, int transactions) {
  SimConfig cfg;
  cfg.mesh_width = 4;
  cfg.mesh_height = 4;
  cfg.design = design;
  cfg.workload = WorkloadKind::Splash;
  cfg.splash_app = app;
  cfg.transactions = transactions;
  cfg.warmup_cycles = 0;
  cfg.measure_cycles = 200'000;
  return cfg;
}

std::vector<SimConfig> splash_points(int transactions) {
  return {splash_point(SplashApp::FFT, RouterDesign::DXbar, transactions),
          splash_point(SplashApp::LU, RouterDesign::FlitBless, transactions),
          splash_point(SplashApp::Radix, RouterDesign::Buffered4,
                       transactions),
          splash_point(SplashApp::Water, RouterDesign::Scarab, transactions)};
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);  // stale state from a prior run
  std::filesystem::create_directories(dir);
  return dir;
}

/// Sweeps `points` through the results store of `dir`; `report` counts
/// the points the sweep ran.
std::vector<RunStats> sweep_logged(const std::vector<SimConfig>& points,
                                   const std::string& dir,
                                   SweepReport* report = nullptr) {
  ResultsLog log(dir);
  return run_sweep(points, 2, nullptr, report, &log);
}

void expect_cold_results(const std::vector<RunStats>& results,
                         const std::vector<SimConfig>& points) {
  ASSERT_EQ(results.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_TRUE(same_stats(results[i], run_open_loop(points[i])))
        << "point " << i;
  }
}

std::size_t swept_points(const SweepReport& report) {
  return report.warm_points() + report.cold_points + report.priced_points;
}

TEST(ClosedLoopCampaignTest, ResumeSkipsCompletedPoints) {
  const std::string dir = fresh_dir("clc_resume");
  const std::vector<SimConfig> points = splash_points(4);

  {
    // A sweep killed after its first two points finished.
    ResultsLog killed(dir);
    EXPECT_EQ(killed.size(), 0u);
    for (const std::size_t i : {0u, 1u}) {
      killed.record(points[i], run_open_loop(points[i]));
    }
  }
  {
    ResultsLog log(dir);
    EXPECT_EQ(log.size(), 2u);
    EXPECT_NE(log.find(points[1]), nullptr);
    EXPECT_EQ(log.find(points[2]), nullptr);
    SweepReport report;
    expect_cold_results(run_sweep(points, 2, nullptr, &report, &log),
                        points);
    EXPECT_EQ(swept_points(report), 2u);
  }
  EXPECT_EQ(ResultsLog(dir).size(), points.size());
}

TEST(ClosedLoopCampaignTest, OtherTransactionCountsAreNotServed) {
  const std::string dir = fresh_dir("clc_foreign");
  const std::vector<SimConfig> quick = splash_points(3);
  const std::vector<SimConfig> full = splash_points(5);

  sweep_logged(quick, dir);
  // A full run sharing the directory: the quick run's results must not
  // be served for its points.
  {
    ResultsLog log(dir);
    for (const SimConfig& p : full) EXPECT_EQ(log.find(p), nullptr);
    log.record(full[0], run_open_loop(full[0]));
  }
  // And back: each point list still finds exactly its own results.
  const ResultsLog log(dir);
  EXPECT_EQ(log.size(), quick.size() + 1);
  for (const SimConfig& p : quick) EXPECT_NE(log.find(p), nullptr);
  ASSERT_NE(log.find(full[0]), nullptr);
  EXPECT_EQ(log.find(full[1]), nullptr);
  EXPECT_TRUE(same_stats(*log.find(full[0]), run_open_loop(full[0])));
}

TEST(ClosedLoopCampaignTest, TornTailIsDroppedNotFatal) {
  const std::string dir = fresh_dir("clc_torn");
  const std::vector<SimConfig> points = {splash_points(4)[0],
                                         splash_points(4)[1]};

  ResultsLog(dir).record(points[0], run_open_loop(points[0]));
  {
    // Simulate a crash mid-append: garbage after the last valid frame.
    std::ofstream out(dir + "/results.bin",
                      std::ios::binary | std::ios::app);
    out.write("\x13\x37\x13", 3);
  }
  {
    SweepReport report;
    ResultsLog log(dir);
    EXPECT_EQ(log.size(), 1u);
    run_sweep(points, 2, nullptr, &report, &log);
    EXPECT_EQ(swept_points(report), 1u);
  }
  // The garbage is gone, so the frame appended after it loads.
  SweepReport report;
  expect_cold_results(sweep_logged(points, dir, &report), points);
  EXPECT_EQ(swept_points(report), 0u);
}

TEST(ClosedLoopCampaignTest, UnreadableResultsFileIsATypedError) {
  const std::string dir = fresh_dir("clc_unreadable");
  std::filesystem::create_directories(dir + "/results.bin");
  try {
    ResultsLog log(dir);
    FAIL() << "an unreadable results.bin must throw";
  } catch (const ResumeFileError& e) {
    EXPECT_NE(std::string(e.what()).find("results.bin"), std::string::npos)
        << e.what();
  }
}

TEST(SplashPoint, SweepAndResumedCampaignMatchTheColdRun) {
  const SimConfig cfg =
      splash_point(SplashApp::Ocean, RouterDesign::DXbar, 4);
  const RunStats cold = run_open_loop(cfg);
  ASSERT_TRUE(cold.drained);
  ASSERT_GT(cold.cycles, 200u);

  // run_sweep prices the tech=32 sibling from the same run, and records
  // both into the store.
  SimConfig at32 = cfg;
  at32.tech_node = 32;
  const std::vector<SimConfig> points = {cfg, at32};
  const std::string dir = fresh_dir("splash_point_resume");
  SweepReport report;
  const std::vector<RunStats> swept = sweep_logged(points, dir, &report);
  EXPECT_EQ(report.priced_points, 1u);
  EXPECT_TRUE(same_stats(swept[0], cold));
  EXPECT_TRUE(same_stats(swept[1], run_open_loop(at32)));

  // The resumed sweep serves both points from the store.
  const std::vector<RunStats> resumed = sweep_logged(points, dir, &report);
  EXPECT_EQ(swept_points(report), 0u);
  EXPECT_TRUE(same_stats(resumed[0], cold));
  EXPECT_TRUE(same_stats(resumed[1], swept[1]));
}

}  // namespace
}  // namespace dxbar
