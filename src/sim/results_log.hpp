// Crash-resumable grid results.
//
// `<dir>/results.bin` is append-only, one frame per completed point.  A
// frame is tag u32 + payload length u64 + payload + FNV-1a of the
// payload (u64), so a torn or damaged frame is detected.  A payload is
// the point list's fingerprint (u64), the point index (u32) and the
// point's RunStats.  Loading keeps the longest intact prefix of
// results.bin, truncating the file to it so later appends stay
// readable, and skips frames of a different point list, whose points
// simply re-run.
//
// run_sweep (sim/sweep.hpp) serves the points a log already holds and
// records every other point as soon as it finishes, so killing the
// process at ANY instant (SIGKILL included) loses only the points in
// flight, and a rerun on the same directory produces results
// bit-identical to an uninterrupted run.
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

/// `<dir>/results.bin` for one point list: one RunStats per point.
class ResultsLog {
 public:
  /// Loads the results recorded in `dir` for `points` (order matters:
  /// frames carry a fingerprint of the whole list, and those of a
  /// different list are ignored).  `dir` must exist.  Throws
  /// ResumeFileError when the file exists but cannot be read, or its
  /// unreadable tail cannot be cut.
  ResultsLog(const std::vector<SimConfig>& points, const std::string& dir);

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

}  // namespace dxbar
