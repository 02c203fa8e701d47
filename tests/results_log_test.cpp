// Tests of the session results store in front of run_sweep.
//
// The contract under test: a sweep through a ResultsLog serves the
// configs the store already holds, simulates only the pending rest, and
// records each of those as it finishes, so a sweep killed at any point
// and rerun on the same directory produces results bit-identical to an
// uninterrupted one, and a later sweep of the same session runs only
// the configs no earlier sweep ran.  A config is served only when every
// serialized field is equal.  Damaged persistence (torn result tail,
// fuzzed bytes, an older frame tag) degrades to recomputation, never to
// wrong numbers.  Files that cannot be read or written raise
// ResumeFileError.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "core/dxbar.hpp"
#include "stats_compare.hpp"

namespace dxbar {
namespace {

namespace fs = std::filesystem;

std::vector<SimConfig> tiny_points() {
  std::vector<SimConfig> points;
  for (RouterDesign d : {RouterDesign::DXbar, RouterDesign::FlitBless}) {
    for (double load : {0.10, 0.25}) {
      SimConfig cfg;
      cfg.mesh_width = 4;
      cfg.mesh_height = 4;
      cfg.design = d;
      cfg.pattern = TrafficPattern::UniformRandom;
      cfg.offered_load = load;
      cfg.warmup_cycles = 150;
      cfg.measure_cycles = 200;
      points.push_back(cfg);
    }
  }
  return points;
}

/// Fresh scratch directory under the gtest temp root.
std::string scratch_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("campaign_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

/// Sweeps `points` through the results store of `dir` on `threads`
/// workers; returns the sweep's results.
std::vector<RunStats> sweep_logged(const std::vector<SimConfig>& points,
                                   const std::string& dir,
                                   unsigned threads = 2,
                                   SweepReport* report = nullptr) {
  ResultsLog log(dir);
  return run_sweep(points, threads, nullptr, report, &log);
}

std::size_t swept_points(const SweepReport& report) {
  return report.warm_points() + report.cold_points + report.priced_points;
}

TEST(Campaign, UninterruptedRunCompletesAndMatchesOpenLoop) {
  const auto points = tiny_points();
  const std::string dir = scratch_dir("straight");
  ResultsLog log(dir);
  const std::vector<RunStats> swept =
      run_sweep(points, 2, nullptr, nullptr, &log);
  EXPECT_EQ(log.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const RunStats cold = run_open_loop(points[i]);
    const RunStats* stored = log.find(points[i]);
    ASSERT_NE(stored, nullptr) << "point " << i;
    EXPECT_TRUE(same_stats(*stored, cold)) << "point " << i;
    EXPECT_TRUE(same_stats(swept[i], cold)) << "point " << i;
  }
}

TEST(Campaign, SweepFromAPartialLogRunsOnlyThePendingPoints) {
  // Two warm groups (a pinned warmup per design) and a 32 nm twin of
  // every point, priced from its 65 nm representative.
  std::vector<SimConfig> points;
  for (SimConfig cfg : tiny_points()) {
    cfg.warmup_load = 0.10;
    points.push_back(cfg);
    cfg.tech_node = 32;
    points.push_back(cfg);
  }
  const std::vector<RunStats> straight = run_sweep(points, 2);

  // A killed sweep's log: some representatives, and the priced twins of
  // two representatives that are not stored.
  const std::vector<std::size_t> stored = {0, 3, 5};
  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE(threads);
    const std::string dir = scratch_dir("partial");
    {
      ResultsLog killed(dir);
      for (const std::size_t i : stored) killed.record(points[i], straight[i]);
    }
    ResultsLog log(dir);
    EXPECT_EQ(log.size(), stored.size());
    SweepReport report;
    const std::vector<RunStats> resumed =
        run_sweep(points, threads, nullptr, &report, &log);
    EXPECT_EQ(swept_points(report), points.size() - stored.size());
    EXPECT_GT(report.priced_points, 0u);
    EXPECT_FALSE(report.groups.empty());
    EXPECT_EQ(log.size(), points.size());
    const ResultsLog reopened(dir);
    for (std::size_t i = 0; i < points.size(); ++i) {
      EXPECT_EQ(stats_bytes(resumed[i]), stats_bytes(straight[i]))
          << "point " << i;
      const RunStats* r = reopened.find(points[i]);
      ASSERT_NE(r, nullptr) << "point " << i;
      EXPECT_EQ(stats_bytes(*r), stats_bytes(straight[i])) << "point " << i;
    }
  }
}

TEST(Campaign, FreshInstanceSeesPersistedCompletion) {
  const auto points = tiny_points();
  const std::string dir = scratch_dir("reopen");
  const std::vector<RunStats> first = sweep_logged(points, dir);

  ResultsLog reopened(dir);
  // Loading alone must report completion: no simulation needed.
  EXPECT_EQ(reopened.size(), points.size());
  SweepReport report;
  const std::vector<RunStats> served =
      run_sweep(points, 2, nullptr, &report, &reopened);
  EXPECT_EQ(swept_points(report), 0u);
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_TRUE(same_stats(served[i], first[i])) << "point " << i;
  }
}

TEST(Campaign, ASessionStoreServesRepeatedPointsAcrossSweeps) {
  // Two sweeps sharing one in-memory store, as two experiments of one
  // dxbar_bench session do: the second simulates only its new points.
  const auto points = tiny_points();
  ResultsLog store;
  EXPECT_TRUE(store.path().empty());
  run_sweep({points[0], points[1]}, 2, nullptr, nullptr, &store);
  EXPECT_EQ(store.size(), 2u);
  SweepReport report;
  const std::vector<RunStats> swept =
      run_sweep(points, 2, nullptr, &report, &store);
  EXPECT_EQ(swept_points(report), 2u);
  EXPECT_EQ(store.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_TRUE(same_stats(swept[i], run_open_loop(points[i])))
        << "point " << i;
  }
}

TEST(Campaign, TornResultTailIsDroppedAndRecomputed) {
  const auto points = tiny_points();
  const std::string dir = scratch_dir("torn");
  const std::vector<RunStats> reference = sweep_logged(points, dir);

  // A crash mid-append leaves a half-written final frame: model it by
  // chopping a few bytes off the end of results.bin.
  const fs::path results = fs::path(dir) / "results.bin";
  const auto size = fs::file_size(results);
  fs::resize_file(results, size - 5);

  ResultsLog damaged(dir);
  EXPECT_EQ(damaged.size(), points.size() - 1);  // only the tail is lost
  SweepReport report;
  const std::vector<RunStats> resumed =
      run_sweep(points, 2, nullptr, &report, &damaged);
  EXPECT_EQ(swept_points(report), 1u);
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_TRUE(same_stats(resumed[i], reference[i])) << "point " << i;
  }

  // The recomputed point was appended where the torn tail was, so the
  // next resume finds every point.
  EXPECT_EQ(ResultsLog(dir).size(), points.size());
}

TEST(Campaign, OnlyAnEqualConfigIsServed) {
  // A config that differs from a stored one in any serialized field,
  // pricing-only and warmup-neutral fields included, is not served; the
  // execution-only fields (shards) are not part of the key.
  const SimConfig stored = tiny_points()[0];
  ResultsLog store;
  store.record(stored, RunStats{});
  for (const ConfigField& f : config_fields()) {
    SimConfig other = stored;
    f.visit(other, [](auto& v) {
      using T = std::remove_reference_t<decltype(v)>;
      if constexpr (std::is_same_v<T, bool>) {
        v = !v;
      } else if constexpr (std::is_enum_v<T>) {
        v = static_cast<T>(static_cast<std::underlying_type_t<T>>(v) + 1);
      } else {
        v = v + 1;
      }
    });
    EXPECT_EQ(store.find(other) != nullptr, f.has(kExecutionOnly)) << f.key;
  }

  // An equal config recorded by another point list is served from the
  // file: only the one new point of this list runs.
  const std::string dir = scratch_dir("other_list");
  sweep_logged(tiny_points(), dir);
  SimConfig fresh = tiny_points()[3];
  fresh.packet_length = 3;
  const std::vector<SimConfig> points = {fresh, tiny_points()[2]};
  SweepReport report;
  const std::vector<RunStats> swept = sweep_logged(points, dir, 2, &report);
  EXPECT_EQ(swept_points(report), 1u);
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_TRUE(same_stats(swept[i], run_open_loop(points[i])))
        << "point " << i;
  }
}

TEST(Campaign, UnreadableResumeFilesAreATypedError) {
  const std::string dir = scratch_dir("unreadable_results");
  fs::create_directories(fs::path(dir) / "results.bin");
  try {
    ResultsLog log(dir);
    FAIL() << "an unreadable results.bin must throw";
  } catch (const ResumeFileError& e) {
    EXPECT_NE(std::string(e.what()).find("results.bin"), std::string::npos)
        << e.what();
  }
}

TEST(Campaign, UnwritableResumeFilesAreATypedError) {
  // A directory in the way of results.bin once the log has loaded: every
  // append fails with it whatever the process's permissions, and the
  // error raised on a worker reaches the calling thread.
  const auto points = tiny_points();
  const std::string dir = scratch_dir("unwritable_results");
  ResultsLog log(dir);
  fs::create_directories(fs::path(dir) / "results.bin");
  try {
    run_sweep(points, 4, nullptr, nullptr, &log);
    FAIL() << "a failed append must throw";
  } catch (const ResumeFileError& e) {
    EXPECT_NE(std::string(e.what()).find("results.bin"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(log.size(), 0u);
}

// --- byte fuzz of the resume files ------------------------------------

std::vector<std::uint8_t> read_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void write_bytes(const fs::path& path, const std::vector<std::uint8_t>& b) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(b.data()),
            static_cast<std::streamsize>(b.size()));
}

/// Every damaged copy of `bytes` the fuzz tries: one flipped byte at
/// each sampled offset, and a truncation there.  About `limit` offsets,
/// evenly spread with an odd stride, so every frame is hit in several
/// fields.
std::vector<std::vector<std::uint8_t>> damaged_copies(
    const std::vector<std::uint8_t>& bytes, std::size_t limit) {
  std::vector<std::vector<std::uint8_t>> out;
  const std::size_t step = std::max<std::size_t>(1, bytes.size() / limit) | 1;
  for (std::size_t pos = 0; pos < bytes.size(); pos += step) {
    out.push_back(bytes);
    out.back()[pos] ^= static_cast<std::uint8_t>(0x5A ^ pos);
    out.emplace_back(bytes.begin(),
                     bytes.begin() + static_cast<std::ptrdiff_t>(pos));
  }
  return out;
}

TEST(Campaign, ByteFuzzedResultsNeverLoadAWrongValue) {
  const auto points = tiny_points();
  const std::string dir = scratch_dir("fuzz_results");
  const std::vector<RunStats> reference = sweep_logged(points, dir);
  const auto bytes = read_bytes(fs::path(dir) / "results.bin");

  for (const auto& damaged : damaged_copies(bytes, 400)) {
    write_bytes(fs::path(dir) / "results.bin", damaged);
    std::unique_ptr<ResultsLog> reopened;
    ASSERT_NO_THROW(reopened = std::make_unique<ResultsLog>(dir));
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (const RunStats* r = reopened->find(points[i])) {
        EXPECT_EQ(stats_bytes(*r), stats_bytes(reference[i]))
            << "point " << i;
      }
    }
  }
}

TEST(Campaign, ResultsUnderTheOldFrameTagAreRecomputed) {
  // Files of the earlier layouts tag their frames "RSOL" (fields in
  // declaration order) or "RSO2" (keyed by a point list's fingerprint
  // and a point index).  Such a frame is as long and as hash-valid as a
  // current one, so only its tag keeps it from decoding into the wrong
  // fields.
  const std::vector<SimConfig> point = {tiny_points()[0]};
  const std::string dir = scratch_dir("old_tag");
  sweep_logged(point, dir);
  for (const char* tag : {"RSOL", "RSO2"}) {
    SCOPED_TRACE(tag);
    auto bytes = read_bytes(fs::path(dir) / "results.bin");
    std::memcpy(bytes.data(), tag, 4);  // a tag is stored as its letters
    write_bytes(fs::path(dir) / "results.bin", bytes);

    ResultsLog reopened(dir);
    EXPECT_EQ(reopened.size(), 0u);
    const std::vector<RunStats> swept =
        run_sweep(point, 1, nullptr, nullptr, &reopened);
    EXPECT_TRUE(same_stats(swept[0], run_open_loop(point[0])));
    EXPECT_EQ(ResultsLog(dir).size(), 1u);
  }
}

}  // namespace
}  // namespace dxbar
