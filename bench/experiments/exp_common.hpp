// Shared vocabulary for the experiment registrations.
#pragma once

#include <string>
#include <vector>

#include "core/dxbar.hpp"
#include "exp/registry.hpp"
#include "exp/runner.hpp"

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

/// The UR load sweep of Figs 5-6, series-major: every figure design at
/// every figure load.
inline std::vector<SimConfig> load_sweep_grid(const RunContext& ctx) {
  std::vector<SimConfig> cfgs;
  for (const DesignVariant& dv : figure_designs()) {
    for (double l : figure_loads()) {
      SimConfig c = ctx.base;
      c.pattern = TrafficPattern::UniformRandom;
      c.design = dv.design;
      c.routing = dv.routing;
      c.offered_load = l;
      cfgs.push_back(c);
    }
  }
  return cfgs;
}

/// The pattern sweep of Figs 7-8, series-major: every figure design on
/// every synthetic pattern at offered load 0.5.
inline std::vector<SimConfig> pattern_grid(const RunContext& ctx) {
  std::vector<SimConfig> cfgs;
  for (const DesignVariant& dv : figure_designs()) {
    for (TrafficPattern p : kAllPatterns) {
      SimConfig c = ctx.base;
      c.pattern = p;
      c.design = dv.design;
      c.routing = dv.routing;
      c.offered_load = 0.5;
      cfgs.push_back(c);
    }
  }
  return cfgs;
}

/// The SPLASH-2 points of Figs 9-10, series-major: every figure design
/// on every application, each run to completion (warmup 0, the
/// measurement window is a 2M-cycle cap).
inline std::vector<SimConfig> splash_grid(const RunContext& ctx) {
  std::vector<SimConfig> cfgs;
  for (const DesignVariant& dv : figure_designs()) {
    for (std::size_t a = 0; a < splash_profiles().size(); ++a) {
      SimConfig c = ctx.base;
      c.design = dv.design;
      c.routing = dv.routing;
      c.workload = WorkloadKind::Splash;
      c.splash_app = static_cast<SplashApp>(a);
      c.warmup_cycles = 0;
      c.measure_cycles = 2'000'000;
      cfgs.push_back(c);
    }
  }
  return cfgs;
}

}  // namespace dxbar::bench
