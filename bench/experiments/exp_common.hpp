// Shared vocabulary for the experiment registrations: the axes, grids
// and metrics more than one experiment declares.
#pragma once

#include <string>
#include <vector>

#include "core/dxbar.hpp"
#include "exp/registry.hpp"
#include "exp/runner.hpp"

namespace dxbar::bench {

using exp::add_series;
using exp::Axis;
using exp::Experiment;
using exp::ExperimentResult;
using exp::fmt;
using exp::Grid;
using exp::grid_table;
using exp::GridView;
using exp::make_axis;
using exp::Registration;
using exp::req_quantile;
using exp::RunContext;
using exp::Table;

struct DesignVariant {
  const char* label;
  RouterDesign design;
  RoutingAlgo routing;
};

/// A "design" axis: each variant sets its design and routing.
inline Axis design_axis(const std::vector<DesignVariant>& variants) {
  return make_axis(
      "design", variants,
      [](const DesignVariant& v) { return std::string(v.label); },
      [](SimConfig& c, const DesignVariant& v) {
        c.design = v.design;
        c.routing = v.routing;
      });
}

/// The designs of the paper's synthetic-traffic figures, in legend
/// order.  DXbar appears twice (DOR and WF variants).
inline Axis figure_designs() {
  return design_axis({
      {"Flit-Bless", RouterDesign::FlitBless, RoutingAlgo::DOR},
      {"SCARAB", RouterDesign::Scarab, RoutingAlgo::DOR},
      {"Buffered 4", RouterDesign::Buffered4, RoutingAlgo::DOR},
      {"Buffered 8", RouterDesign::Buffered8, RoutingAlgo::DOR},
      {"DXbar DOR", RouterDesign::DXbar, RoutingAlgo::DOR},
      {"DXbar WF", RouterDesign::DXbar, RoutingAlgo::WestFirst},
      {"Unified DOR", RouterDesign::UnifiedXbar, RoutingAlgo::DOR},
  });
}

/// The eight designs of the paper and its first extensions, each under
/// DOR and labelled by its name.
inline Axis all_designs() {
  const std::vector<RouterDesign> designs = {
      RouterDesign::FlitBless,  RouterDesign::Scarab,
      RouterDesign::Buffered4,  RouterDesign::Buffered8,
      RouterDesign::DXbar,      RouterDesign::UnifiedXbar,
      RouterDesign::BufferedVC, RouterDesign::Afc,
  };
  return make_axis(
      "design", designs,
      [](RouterDesign d) { return std::string(to_string(d)); },
      [](SimConfig& c, RouterDesign d) {
        c.design = d;
        c.routing = RoutingAlgo::DOR;
      });
}

/// The load axis of the throughput/energy figures: 0.1 .. 0.9 step 0.1.
inline std::vector<double> figure_loads(double step = 0.1) {
  std::vector<double> loads;
  for (double l = 0.1; l <= 0.9 + 1e-9; l += step) loads.push_back(l);
  return loads;
}

/// figure_loads as the "offered" axis, labelled "%.1f".
inline Axis load_axis(double step = 0.1) {
  return make_axis(
      "offered", figure_loads(step), [](double l) { return fmt(l, "%.1f"); },
      [](SimConfig& c, double l) { c.offered_load = l; });
}

inline Axis pattern_axis(const std::vector<TrafficPattern>& patterns) {
  return make_axis(
      "pattern", patterns,
      [](TrafficPattern p) { return std::string(to_string(p)); },
      [](SimConfig& c, TrafficPattern p) { c.pattern = p; });
}

inline Axis routing_axis(const std::vector<RoutingAlgo>& algos) {
  return make_axis(
      "routing", algos, [](RoutingAlgo a) { return std::string(to_string(a)); },
      [](SimConfig& c, RoutingAlgo a) { c.routing = a; });
}

/// The crossbar fault fractions of Figs 11-12 and the closed-loop fault
/// tail, each labelled as a percentage through `label_fmt`.
inline Axis crossbar_fault_axis(std::string name, const char* label_fmt) {
  return make_axis(
      std::move(name), std::vector<double>{0.0, 0.25, 0.5, 0.75, 1.0},
      [label_fmt](double f) { return fmt(f * 100, label_fmt); },
      [](SimConfig& c, double f) { c.fault_fraction = f; });
}

/// The UR load sweep of Figs 5-6: every figure design at every figure
/// load.
inline Grid load_sweep_grid(const RunContext& ctx) {
  Grid g{ctx.base, {figure_designs(), load_axis()}};
  g.base.pattern = TrafficPattern::UniformRandom;
  return g;
}

/// The pattern sweep of Figs 7-8: every figure design on every synthetic
/// pattern at offered load 0.5.
inline Grid pattern_grid(const RunContext& ctx) {
  Grid g{ctx.base,
         {figure_designs(),
          pattern_axis({kAllPatterns.begin(), kAllPatterns.end()})}};
  g.base.offered_load = 0.5;
  return g;
}

/// The SPLASH-2 points of Figs 9-10: every figure design on every
/// application, each run to completion (warmup 0, the measurement window
/// is a 2M-cycle cap).
inline Grid splash_grid(const RunContext& ctx) {
  Axis apps{"app", {}};
  for (std::size_t a = 0; a < splash_profiles().size(); ++a) {
    apps.values.push_back(
        {std::string(splash_profiles()[a].name), [a](SimConfig& c) {
           c.splash_app = static_cast<SplashApp>(a);
         }});
  }
  Grid g{ctx.base, {figure_designs(), std::move(apps)}};
  g.base.workload = WorkloadKind::Splash;
  g.base.warmup_cycles = 0;
  g.base.measure_cycles = 2'000'000;
  return g;
}

/// The DXbar crossbar-fault sweep of Figs 11-12: DOR and WF, every fault
/// fraction, figure loads in steps of `load_step`.
inline Grid crossbar_fault_grid(const RunContext& ctx, double load_step) {
  Grid g{ctx.base,
         {routing_axis({RoutingAlgo::DOR, RoutingAlgo::WestFirst}),
          crossbar_fault_axis("faults", "%.0f%% faults"),
          load_axis(load_step)}};
  g.base.design = RouterDesign::DXbar;
  return g;
}

/// Buffer energy per delivered packet (nJ).
inline double buffer_nj_per_packet(const RunStats& st) {
  const double pkts = static_cast<double>(st.flits_ejected) / st.packet_length;
  return pkts == 0.0 ? 0.0 : st.energy_buffer_nj / pkts;
}

}  // namespace dxbar::bench
