// dxbar-noc public API.
//
// Single-header entry point for library users: configure an experiment
// with SimConfig, run it with run_open_loop (one point) or run_sweep
// (many, in parallel) — or drive the Network cycle-by-cycle yourself —
// and read the RunStats.  report::saturation_from_points
// (report/analysis.hpp) turns a load sweep's accepted loads into the
// paper's saturation point.  Everything is deterministic for a given
// seed.
//
//   #include "core/dxbar.hpp"
//   dxbar::SimConfig cfg;
//   cfg.design = dxbar::RouterDesign::DXbar;
//   cfg.pattern = dxbar::TrafficPattern::UniformRandom;
//   cfg.offered_load = 0.3;
//   auto stats = dxbar::run_open_loop(cfg);
#pragma once

#include <string_view>

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
inline std::string_view version() { return "1.0.0"; }

}  // namespace dxbar
