// dxbar-noc public API.
//
// Single-header entry point for library users: configure an experiment
// with SimConfig, run it with one of the functions below (or drive the
// Network cycle-by-cycle yourself), and read the RunStats.  Everything
// is deterministic for a given seed.
//
//   #include "core/dxbar.hpp"
//   dxbar::SimConfig cfg;
//   cfg.design = dxbar::RouterDesign::DXbar;
//   cfg.pattern = dxbar::TrafficPattern::UniformRandom;
//   cfg.offered_load = 0.3;
//   auto stats = dxbar::run_open_loop(cfg);
#pragma once

#include <string_view>
#include <vector>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "fault/fault_model.hpp"
#include "power/energy_model.hpp"
#include "sim/network.hpp"
#include "sim/results_log.hpp"
#include "sim/sim_runner.hpp"
#include "sim/sweep.hpp"
#include "snapshot/serialize.hpp"
#include "traffic/splash.hpp"
#include "traffic/trace_io.hpp"

namespace dxbar {

/// Library version.
std::string_view version();

/// One point of a load sweep.
struct LoadPoint {
  double offered_load = 0.0;
  RunStats stats;
};

/// Sweeps cfg over `loads` (in parallel) and returns one point per load.
std::vector<LoadPoint> load_sweep(const SimConfig& base,
                                  const std::vector<double>& loads,
                                  unsigned threads = 0);

/// The offered load at which acceptance first drops below
/// `acceptance_ratio` (default 90% of offered), scanned over
/// [step, max_load] in increments of `step`; returns max_load when the
/// network never saturates in range.  This is the paper's "saturation
/// point".
double find_saturation(const SimConfig& base, double step = 0.05,
                       double max_load = 0.95,
                       double acceptance_ratio = 0.9, unsigned threads = 0);

}  // namespace dxbar
