// The session results store.
//
// One map from a config's serialized bytes (config_bytes, which leaves
// out the execution-only fields such as shards) to its RunStats.  A
// RunStats is a pure function of its config, so any sweep of a session
// may serve a point that an earlier sweep ran: run_sweep (sim/sweep.hpp)
// serves every pending point the store holds and records every point it
// simulates.
//
// Without a directory the store lives in memory.  With one (dxbar_bench
// --resume DIR) it is backed by `<dir>/results.bin`, append-only, one
// frame per recorded config.  A frame is tag u32 + payload length u64 +
// payload + FNV-1a of the payload (u64), so a torn or damaged frame is
// detected.  A payload is the config bytes and the RunStats.  Loading
// keeps the longest intact prefix of results.bin, truncating the file to
// it so later appends stay readable.  Killing the process at ANY instant
// (SIGKILL included) loses only the points in flight, and a rerun on the
// same directory produces results bit-identical to an uninterrupted run.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
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

/// RunStats by config, in memory or backed by `<dir>/results.bin`.
class ResultsLog {
 public:
  /// An in-memory store.
  ResultsLog() = default;
  /// A store backed by `<dir>/results.bin` (`dir` is created if missing),
  /// holding every intact frame of the file.  Throws ResumeFileError when
  /// the directory cannot be created, the file cannot be read, or its
  /// unreadable tail cannot be cut.
  explicit ResultsLog(const std::string& dir);

  /// The stored result of `cfg`, or nullptr.  Thread-safe; a returned
  /// result stays valid and unchanged for the store's lifetime.
  [[nodiscard]] const RunStats* find(const SimConfig& cfg) const;

  /// Stores `r` as the result of `cfg` unless `cfg` is stored already;
  /// a file-backed store appends it, flushed before it returns.
  /// Thread-safe.  Throws ResumeFileError when the append fails, and
  /// then stores nothing.
  void record(const SimConfig& cfg, const RunStats& r);

  [[nodiscard]] std::size_t size() const;

  /// `<dir>/results.bin`, or empty for an in-memory store.
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::map<std::vector<std::uint8_t>, RunStats> results_;
  mutable std::mutex mu_;
};

}  // namespace dxbar
