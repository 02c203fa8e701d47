// Crash-resumable campaign runner tests.
//
// The contract under test: a campaign interrupted at arbitrary points
// (budget pauses model SIGKILL — no extra checkpoint is written) and
// resumed by fresh Campaign instances produces results bit-identical to
// an uninterrupted run, and damaged persistence (torn result tail,
// corrupt or stale checkpoint, results of another point list, fuzzed
// bytes) degrades to recomputation, never to wrong numbers.  Files that
// cannot be read or written raise ResumeFileError.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
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

void expect_same_results(const Campaign& a, const Campaign& b) {
  const auto& ra = a.results();
  const auto& rb = b.results();
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    ASSERT_TRUE(ra[i].has_value()) << "point " << i;
    ASSERT_TRUE(rb[i].has_value()) << "point " << i;
    EXPECT_TRUE(same_stats(*ra[i], *rb[i])) << "point " << i;
  }
}

TEST(Campaign, UninterruptedRunCompletesAndMatchesOpenLoop) {
  const auto points = tiny_points();
  Campaign campaign(points, scratch_dir("straight"), 100);
  const CampaignStatus st = campaign.run();
  EXPECT_TRUE(st.finished);
  EXPECT_EQ(st.completed, points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    ASSERT_TRUE(campaign.results()[i].has_value());
    EXPECT_TRUE(same_stats(*campaign.results()[i], run_open_loop(points[i])))
        << "point " << i;
  }
}

TEST(Campaign, BudgetSlicedCrashResumeIsBitExact) {
  const auto points = tiny_points();

  const std::string ref_dir = scratch_dir("crash_ref");
  Campaign reference(points, ref_dir, 100);
  ASSERT_TRUE(reference.run().finished);

  // Simulate a batch queue that SIGKILLs the job every ~300 simulated
  // cycles: each slice is a FRESH Campaign instance (no carried state),
  // and budget pauses deliberately skip the courtesy checkpoint, so
  // every resume goes through the real crash-recovery path.
  const std::string dir = scratch_dir("crash_sliced");
  bool finished = false;
  int slices = 0;
  while (!finished) {
    ASSERT_LT(++slices, 200) << "campaign failed to make progress";
    Campaign slice(points, dir, 100);
    finished = slice.run(300).finished;
  }
  EXPECT_GT(slices, 2) << "budget too generous to exercise resume";

  Campaign done(points, dir, 100);
  EXPECT_TRUE(done.status().finished);
  expect_same_results(done, reference);

  // The persisted artifacts themselves must agree byte-for-byte.
  std::ifstream fa(fs::path(ref_dir) / "results.bin", std::ios::binary);
  std::ifstream fb(fs::path(dir) / "results.bin", std::ios::binary);
  const std::string ba((std::istreambuf_iterator<char>(fa)), {});
  const std::string bb((std::istreambuf_iterator<char>(fb)), {});
  EXPECT_EQ(ba, bb);
}

TEST(Campaign, SameInstanceResumesAfterBudgetPause) {
  const auto points = tiny_points();
  Campaign reference(points, scratch_dir("same_ref"), 100);
  ASSERT_TRUE(reference.run().finished);

  Campaign campaign(points, scratch_dir("same_inst"), 100);
  int calls = 0;
  while (!campaign.run(400).finished) {
    ASSERT_LT(++calls, 200);
  }
  expect_same_results(campaign, reference);
}

TEST(Campaign, FreshInstanceSeesPersistedCompletion) {
  const auto points = tiny_points();
  const std::string dir = scratch_dir("reopen");
  {
    Campaign campaign(points, dir, 100);
    ASSERT_TRUE(campaign.run().finished);
  }
  Campaign reopened(points, dir, 100);
  // status() alone must report completion — no simulation needed.
  EXPECT_TRUE(reopened.status().finished);
  EXPECT_EQ(reopened.status().completed, points.size());
  for (const auto& r : reopened.results()) EXPECT_TRUE(r.has_value());
}

TEST(Campaign, TornResultTailIsDroppedAndRecomputed) {
  const auto points = tiny_points();
  const std::string dir = scratch_dir("torn");
  {
    Campaign campaign(points, dir, 100);
    ASSERT_TRUE(campaign.run().finished);
  }

  // A crash mid-append leaves a half-written final frame: model it by
  // chopping a few bytes off the end of results.bin.
  const fs::path results = fs::path(dir) / "results.bin";
  const auto size = fs::file_size(results);
  fs::resize_file(results, size - 5);

  Campaign damaged(points, dir, 100);
  const CampaignStatus before = damaged.status();
  EXPECT_FALSE(before.finished);
  EXPECT_EQ(before.completed, points.size() - 1);  // only the tail is lost

  ASSERT_TRUE(damaged.run().finished);
  Campaign reference(points, scratch_dir("torn_ref"), 100);
  ASSERT_TRUE(reference.run().finished);
  expect_same_results(damaged, reference);

  // The recomputed point was appended where the torn tail was, so the
  // next resume finds every point.
  Campaign reopened(points, dir, 100);
  EXPECT_TRUE(reopened.status().finished);
}

TEST(Campaign, CorruptCheckpointFallsBackToColdStart) {
  const auto points = tiny_points();
  const std::string dir = scratch_dir("corrupt_ckpt");
  {
    Campaign campaign(points, dir, 100);
    campaign.run(300);  // pause mid-point, checkpoint on disk
  }
  const fs::path ckpt = fs::path(dir) / "checkpoint.bin";
  ASSERT_TRUE(fs::exists(ckpt));
  {
    // Scribble over the middle of the checkpoint.
    std::fstream f(ckpt, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(fs::file_size(ckpt) / 2));
    const char junk[8] = {0x5A, 0x5A, 0x5A, 0x5A, 0x5A, 0x5A, 0x5A, 0x5A};
    f.write(junk, sizeof junk);
  }

  Campaign damaged(points, dir, 100);
  ASSERT_TRUE(damaged.run().finished);
  Campaign reference(points, scratch_dir("corrupt_ref"), 100);
  ASSERT_TRUE(reference.run().finished);
  expect_same_results(damaged, reference);
}

TEST(Campaign, CheckpointFromDifferentCampaignIsIgnored) {
  const auto points = tiny_points();
  const std::string dir = scratch_dir("foreign_ckpt");
  {
    Campaign campaign(points, dir, 100);
    campaign.run(300);  // leaves a checkpoint for THIS point list
  }
  // Re-open the directory with a different point list (different seed →
  // different fingerprint): the stale checkpoint must not be restored.
  auto other_points = tiny_points();
  for (auto& p : other_points) p.seed = 77;
  Campaign other(other_points, dir, 100);
  ASSERT_TRUE(other.run().finished);

  Campaign reference(other_points, scratch_dir("foreign_ref"), 100);
  ASSERT_TRUE(reference.run().finished);
  expect_same_results(other, reference);
}

TEST(Campaign, ResultsFromADifferentPointListAreIgnored) {
  const std::string dir = scratch_dir("stale_results");
  {
    Campaign campaign(tiny_points(), dir, 100);
    ASSERT_TRUE(campaign.run().finished);
  }
  // Same directory, same number of points, one field changed: every
  // recorded result belongs to the old list and must re-run.
  auto other_points = tiny_points();
  for (auto& p : other_points) p.packet_length = 3;
  Campaign other(other_points, dir, 100);
  EXPECT_EQ(other.status().completed, 0u);
  ASSERT_TRUE(other.run().finished);
  for (std::size_t i = 0; i < other_points.size(); ++i) {
    EXPECT_TRUE(same_stats(*other.results()[i], run_open_loop(other_points[i])))
        << "point " << i;
  }
}

TEST(Campaign, UnreadableResumeFilesAreATypedError) {
  const auto points = tiny_points();
  const std::string dir = scratch_dir("unreadable_results");
  fs::create_directories(fs::path(dir) / "results.bin");
  try {
    Campaign campaign(points, dir, 100);
    FAIL() << "an unreadable results.bin must throw";
  } catch (const ResumeFileError& e) {
    EXPECT_NE(std::string(e.what()).find("results.bin"), std::string::npos)
        << e.what();
  }

  const std::string ckpt_dir = scratch_dir("unreadable_checkpoint");
  fs::create_directories(fs::path(ckpt_dir) / "checkpoint.bin");
  Campaign campaign(points, ckpt_dir, 100);
  EXPECT_THROW(campaign.run(), ResumeFileError);
}

TEST(Campaign, UnwritableResumeFilesAreATypedError) {
  // Directories in the way of the files a campaign writes: a write fails
  // with them whatever the process's permissions.
  const auto points = tiny_points();
  const std::string ckpt_dir = scratch_dir("unwritable_checkpoint");
  fs::create_directories(fs::path(ckpt_dir) / "checkpoint.bin.tmp");
  Campaign paused(points, ckpt_dir, 100);
  EXPECT_THROW(paused.run(300), ResumeFileError);

  const std::string dir = scratch_dir("unwritable_results");
  Campaign campaign(points, dir, 100'000);
  fs::create_directories(fs::path(dir) / "results.bin");
  try {
    campaign.run();
    FAIL() << "a failed append must throw";
  } catch (const ResumeFileError& e) {
    EXPECT_NE(std::string(e.what()).find("results.bin"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(campaign.status().completed, 0u);
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
  Campaign reference(points, dir, 100);
  ASSERT_TRUE(reference.run().finished);
  const auto bytes = read_bytes(fs::path(dir) / "results.bin");

  for (const auto& damaged : damaged_copies(bytes, 400)) {
    write_bytes(fs::path(dir) / "results.bin", damaged);
    std::unique_ptr<Campaign> reopened;
    ASSERT_NO_THROW(reopened = std::make_unique<Campaign>(points, dir, 100));
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (reopened->results()[i].has_value()) {
        EXPECT_EQ(stats_bytes(*reopened->results()[i]),
                  stats_bytes(*reference.results()[i]))
            << "point " << i;
      }
    }
  }
}

TEST(Campaign, ByteFuzzedCheckpointResumesBitExact) {
  const std::vector<SimConfig> point = {tiny_points()[1]};
  const std::string src = scratch_dir("fuzz_ckpt_src");
  {
    Campaign campaign(point, src, 100);
    ASSERT_FALSE(campaign.run(250).finished);  // checkpoint at cycle 200
  }
  const auto bytes = read_bytes(fs::path(src) / "checkpoint.bin");
  ASSERT_FALSE(bytes.empty());
  const auto cold = stats_bytes(run_open_loop(point[0]));

  auto copies = damaged_copies(bytes, 150);
  copies.push_back(bytes);  // the intact checkpoint resumes too
  for (const auto& damaged : copies) {
    const std::string dir = scratch_dir("fuzz_ckpt");
    write_bytes(fs::path(dir) / "checkpoint.bin", damaged);
    Campaign campaign(point, dir, 100);
    ASSERT_NO_THROW(ASSERT_TRUE(campaign.run().finished));
    EXPECT_EQ(stats_bytes(*campaign.results()[0]), cold);
  }
}

TEST(Campaign, ResultsUnderTheOldFrameTagAreRecomputed) {
  // Logs from before the table-order RunStats payload tag their frames
  // "RSOL".  Such a frame is as long and as hash-valid as a current one,
  // so only its tag keeps it from decoding into the wrong fields.
  const std::vector<SimConfig> point = {tiny_points()[0]};
  const std::string dir = scratch_dir("old_tag");
  ASSERT_TRUE(Campaign(point, dir, 100).run().finished);
  auto bytes = read_bytes(fs::path(dir) / "results.bin");
  std::memcpy(bytes.data(), "RSOL", 4);  // a tag is stored as its letters
  write_bytes(fs::path(dir) / "results.bin", bytes);

  Campaign reopened(point, dir, 100);
  EXPECT_EQ(reopened.status().completed, 0u);
  ASSERT_TRUE(reopened.run().finished);
  EXPECT_TRUE(same_stats(*reopened.results()[0], run_open_loop(point[0])));
  EXPECT_TRUE(Campaign(point, dir, 100).status().finished);
}

}  // namespace
}  // namespace dxbar
