// The four dxbar_perf workloads.  Each runs fixed-work reps, interleaved
// with set-up, until the time budget is spent, and checks every rep's
// simulated outputs before any number from it is reported.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "metrics.hpp"

namespace dxbar::perf {

struct PerfOptions {
  std::uint64_t seed = 1;
  /// Time budget for the reps; a rep that would end past it is not
  /// started once the minimum rep count is reached.
  double seconds = 15.0;
  /// Shrunk windows and meshes for smoke runs (all gates stay on).
  bool quick = false;
  /// Traced run: alternate untraced and traced reps and report the
  /// per-layer metrics from the traced ones.
  bool trace = false;
  /// Span file of the first traced rep (JSON lines); empty = none.
  std::string trace_file;
  /// Directory for the session workload's JSON result documents.
  std::string work_dir;
  /// Hardware threads available to this process.
  unsigned host_threads = 1;
};

const std::vector<std::string>& workload_names();

/// Runs workload `name` in this process.  Gate failures are counted in
/// the result (and described on stderr); an unknown name throws
/// std::invalid_argument.
WorkloadResult run_workload(const std::string& name, const PerfOptions& opt);

}  // namespace dxbar::perf
