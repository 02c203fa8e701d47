// Crash-resumable simulation campaigns.
//
// Everything a campaign persists lives under one directory:
//
//   results.bin     append-only, one frame per completed point
//   checkpoint.bin  one frame holding a snapshot of the in-flight
//                   point (campaign cursor + network +
//                   workload), replaced atomically via write-to-temp +
//                   rename
//
// A frame is tag u32 + payload length u64 + payload + FNV-1a of the
// payload (u64), so a torn or damaged frame is detected.  A results
// payload is the job-list fingerprint (u64), the point index (u32) and
// the result.  Loading keeps the longest intact prefix of results.bin,
// truncating the file to it so later appends stay readable, and skips
// frames of a different job list, whose points simply re-run.
//
// Campaign runs the points and checkpoints inside each one: killing the
// process at ANY instant (SIGKILL included) loses at most one checkpoint
// interval of simulated work, and a fresh Campaign on the same directory
// produces results bit-identical to an uninterrupted run.  A point whose
// workload has no snapshot support (workload=splash) is short and gets
// no checkpoint: an interruption inside it restarts it cold.
#pragma once

#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/stats.hpp"

namespace dxbar {

/// A resume file that cannot be read or written; what() names the file.
class ResumeFileError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// `<dir>/results.bin` for one job list: one RunStats per point.
class ResultsLog {
 public:
  /// Loads the results recorded in `dir` for the job list `fingerprint`
  /// names; `points` is its size.  Throws ResumeFileError when the file
  /// exists but cannot be read, or its unreadable tail cannot be cut.
  ResultsLog(std::size_t points, const std::string& dir,
             std::uint64_t fingerprint);

  /// Per-point results; nullopt while a point is still pending.
  [[nodiscard]] const std::vector<std::optional<RunStats>>& results()
      const {
    return results_;
  }

  [[nodiscard]] std::size_t completed() const;

  /// Persists one finished point: thread-safe, flushed before it
  /// returns.  Throws ResumeFileError when the append fails.
  void record(std::size_t point, const RunStats& r);

 private:
  std::string path_;
  std::uint64_t fingerprint_;
  std::vector<std::optional<RunStats>> results_;
  std::mutex mu_;
};

struct CampaignStatus {
  std::size_t completed = 0;  ///< points with persisted results
  std::size_t total = 0;
  bool finished = false;  ///< every point completed
};

/// An ordered list of points, each simulated cold through sim_runner's
/// phases (advance_open_loop, drain_open_loop, summarize_open_loop) in
/// checkpoint_interval slices.
class Campaign {
 public:
  /// `points` defines the campaign (order matters: it is the execution
  /// and resume order).  `dir` must exist; pass the same points to
  /// resume — results and checkpoints carry a fingerprint of the point
  /// list, and those of a different list are ignored.
  /// `checkpoint_interval` is in simulated cycles.
  Campaign(std::vector<SimConfig> points, const std::string& dir,
           Cycle checkpoint_interval = 50'000);

  /// Runs points in order until all complete or `cycle_budget` simulated
  /// cycles have been stepped by this call (0 = unlimited).  A budget
  /// pause returns WITHOUT writing an extra checkpoint — exactly the
  /// guarantee a kill gets — so tests exercising budget pauses measure
  /// the real crash-recovery path.  Throws ResumeFileError when the
  /// checkpoint cannot be read or a checkpoint or result cannot be
  /// written.
  CampaignStatus run(std::uint64_t cycle_budget = 0);

  [[nodiscard]] CampaignStatus status() const;

  /// Per-point results; nullopt while a point is still pending.
  [[nodiscard]] const std::vector<std::optional<RunStats>>& results() const {
    return log_.results();
  }

 private:
  std::vector<SimConfig> points_;
  std::string checkpoint_path_;
  Cycle checkpoint_interval_;
  std::uint64_t fingerprint_;  ///< over the full point list
  ResultsLog log_;
};

}  // namespace dxbar
