// Shared vocabulary for the experiment registrations.
#pragma once

#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "core/dxbar.hpp"
#include "exp/registry.hpp"
#include "exp/runner.hpp"
#include "sim/campaign.hpp"
#include "snapshot/serialize.hpp"

namespace dxbar::bench {

using exp::Experiment;
using exp::ExperimentResult;
using exp::Registration;
using exp::RunContext;
using exp::Table;
using exp::fmt;

/// The six designs of the paper's synthetic-traffic figures, in legend
/// order.  DXbar appears twice (DOR and WF variants).
struct DesignVariant {
  const char* label;
  RouterDesign design;
  RoutingAlgo routing;
};

inline const std::vector<DesignVariant>& figure_designs() {
  static const std::vector<DesignVariant> v = {
      {"Flit-Bless", RouterDesign::FlitBless, RoutingAlgo::DOR},
      {"SCARAB", RouterDesign::Scarab, RoutingAlgo::DOR},
      {"Buffered 4", RouterDesign::Buffered4, RoutingAlgo::DOR},
      {"Buffered 8", RouterDesign::Buffered8, RoutingAlgo::DOR},
      {"DXbar DOR", RouterDesign::DXbar, RoutingAlgo::DOR},
      {"DXbar WF", RouterDesign::DXbar, RoutingAlgo::WestFirst},
      {"Unified DOR", RouterDesign::UnifiedXbar, RoutingAlgo::DOR},
  };
  return v;
}

/// The load axis of the throughput/energy figures: 0.1 .. 0.9 step 0.1.
inline std::vector<double> figure_loads(double step = 0.1) {
  std::vector<double> loads;
  for (double l = 0.1; l <= 0.9 + 1e-9; l += step) loads.push_back(l);
  return loads;
}

/// Fingerprint of a closed-loop SPLASH job list (configs + per-app work
/// + cycle cap): a ResultsLog keyed on it ignores results
/// recorded for a different job list (e.g. --quick vs full).
inline std::uint64_t
splash_jobs_fingerprint(
    const std::vector<std::pair<SimConfig, const SplashProfile*>>& jobs,
    Cycle max_cycles) {
  SnapshotWriter w;
  for (const auto& [cfg, app] : jobs) {
    save_config(w, cfg);
    for (char c : app->name) w.u8(static_cast<std::uint8_t>(c));
    w.u32(app->transactions_per_node);
  }
  w.u64(max_cycles);
  return fnv1a(w.data().data(), w.data().size());
}

/// Runs `n` closed-loop jobs in parallel with optional point-level
/// resume: when ctx.resume_dir is set (the experiment declared
/// custom_resume), finished points are loaded from
/// `<resume_dir>/<exp_name>/results.bin`, only missing points run, and
/// each completion is persisted as soon as it lands.
inline std::vector<ClosedLoopResult> run_closed_loop_jobs(
    const RunContext& ctx, const std::string& exp_name, std::size_t n,
    std::uint64_t fingerprint,
    const std::function<ClosedLoopResult(std::size_t)>& run_job) {
  std::vector<ClosedLoopResult> results(n);
  if (ctx.resume_dir.empty()) {
    parallel_for(
        n, [&](std::size_t i) { results[i] = run_job(i); }, ctx.threads);
    return results;
  }

  const std::string dir = ctx.resume_dir + "/" + exp_name;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "dxbar_bench: cannot create campaign dir %s: %s\n",
                 dir.c_str(), ec.message().c_str());
    std::exit(1);
  }
  ResultsLog<ClosedLoopResult> log(n, dir, fingerprint);
  std::vector<std::size_t> missing;
  for (std::size_t i = 0; i < n; ++i) {
    if (!log.results()[i].has_value()) missing.push_back(i);
  }
  std::fprintf(stderr,
               "dxbar_bench: %s: closed-loop campaign of %zu point(s) in "
               "%s, %zu already complete\n",
               exp_name.c_str(), n, dir.c_str(), n - missing.size());
  parallel_for(
      missing.size(),
      [&](std::size_t m) {
        const std::size_t i = missing[m];
        log.record(i, run_job(i));
      },
      ctx.threads);
  for (std::size_t i = 0; i < n; ++i) results[i] = *log.results()[i];
  return results;
}

}  // namespace dxbar::bench
