// Ablation (extension) — link faults: dead mesh edges routed around via
// the fault-aware BFS table.  The companion experiment to the paper's
// crossbar-fault study (Figs 11-12): crossbar faults degrade a router's
// *internal* datapath; link faults degrade the topology itself.
#include <utility>

#include "exp_common.hpp"

namespace dxbar::bench {
namespace {

const std::vector<double> kFractions = {0.0, 0.05, 0.1, 0.2, 0.3};

const Registration reg(Experiment{
    .name = "ablation_link_faults",
    .title = "Ablation: dead mesh links routed around (extension)",
    .paper_shape =
        "latency and hop count rise with detours; escape-valve designs "
        "degrade gracefully while pure-deflection routers thrash",
    .axes =
        [](const RunContext& ctx) {
          // The design axis sets no routing: every point keeps the base
          // config's.
          const std::vector<std::pair<const char*, RouterDesign>> designs = {
              {"DXbar", RouterDesign::DXbar},
              {"Unified", RouterDesign::UnifiedXbar},
              {"Flit-Bless", RouterDesign::FlitBless},
              {"SCARAB", RouterDesign::Scarab},
          };
          Grid g{ctx.base,
                 {make_axis(
                      "design", designs,
                      [](const auto& d) { return std::string(d.first); },
                      [](SimConfig& c, const auto& d) { c.design = d.second; }),
                  make_axis(
                      "dead", kFractions,
                      [](double f) { return fmt(f * 100, "%.0f%%"); },
                      [](SimConfig& c, double f) {
                        c.link_fault_fraction = f;
                      })}};
          g.base.offered_load = 0.25;
          return g;
        },
    .reduce =
        [](const RunContext&, const GridView& g) {
          ExperimentResult r;
          r.add_table(grid_table(
              "Link faults: accepted load at offered 0.25 vs dead edges", g,
              "dead", "design", &RunStats::accepted_load));
          r.add_table(grid_table("Link faults: avg packet latency (cycles)",
                                 g, "dead", "design",
                                 &RunStats::avg_packet_latency, "%10.1f"));
          r.add_table(grid_table(
              "Link faults: avg hops per flit (detour cost)", g, "dead",
              "design", &RunStats::avg_hops, "%10.2f"));
          return r;
        },
});

}  // namespace
}  // namespace dxbar::bench
