// Ablation — unified dual-input single crossbar vs the dual-crossbar
// DXbar (paper section II.B).
//
// Claim to verify: the unified design provides the same (consistently
// slightly better) performance as the dual crossbar at 25% instead of
// 33% area overhead, paying 15 pJ instead of 13 pJ per crossbar
// traversal.  Both routing algorithms are swept across loads.
#include "exp_common.hpp"
#include "power/energy_model.hpp"

namespace dxbar::bench {
namespace {

const Registration reg(Experiment{
    .name = "ablation_unified_vs_dual",
    .title = "Ablation: unified single crossbar vs dual-crossbar DXbar",
    .paper_shape =
        "unified matches (slightly beats) the dual crossbar at 25% "
        "instead of 33% area overhead, paying 15 pJ vs 13 pJ per "
        "traversal",
    .axes =
        [](const RunContext& ctx) {
          return Grid{
              ctx.base,
              {design_axis({
                   {"DXbar DOR", RouterDesign::DXbar, RoutingAlgo::DOR},
                   {"Unified DOR", RouterDesign::UnifiedXbar,
                    RoutingAlgo::DOR},
                   {"DXbar WF", RouterDesign::DXbar, RoutingAlgo::WestFirst},
                   {"Unified WF", RouterDesign::UnifiedXbar,
                    RoutingAlgo::WestFirst},
               }),
               load_axis()}};
        },
    .reduce =
        [](const RunContext& ctx, const GridView& g) {
          ExperimentResult r;
          r.add_table(grid_table(
              "Ablation: accepted load, dual vs unified crossbar", g,
              "offered", "design", &RunStats::accepted_load));
          r.add_table(grid_table("Ablation: avg packet latency (cycles)", g,
                                 "offered", "design",
                                 &RunStats::avg_packet_latency, "%10.1f"));
          r.add_table(grid_table("Ablation: energy per packet (nJ)", g,
                                 "offered", "design",
                                 &RunStats::energy_per_packet_nj, "%10.3f"));

          const auto area_of = [&](RouterDesign d) {
            SimConfig c = ctx.base;
            c.design = d;
            return router_area_mm2(d, derive_area_params(c));
          };
          const double dual = area_of(RouterDesign::DXbar);
          const double unified = area_of(RouterDesign::UnifiedXbar);
          r.addf(
              "\nArea: DXbar %.4f mm^2, Unified %.4f mm^2 (%.1f%% "
              "saved)\n",
              dual, unified, 100.0 * (1.0 - unified / dual));
          return r;
        },
});

}  // namespace
}  // namespace dxbar::bench
