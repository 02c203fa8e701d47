// Ablation — secondary-crossbar buffer depth.
//
// The paper fixes the DXbar input FIFOs at 4 flits (matching Buffered 4
// per input).  This sweep shows the sensitivity: deeper FIFOs absorb
// contention bursts and push the saturation point up, at the cost of
// area and buffer energy; depth 1 degenerates toward a mostly-bufferless
// router with frequent escape deflections.
#include "exp_common.hpp"

namespace dxbar::bench {
namespace {

const std::vector<int> kDepths = {1, 2, 4, 8, 16};
const std::vector<double> kLoads = {0.3, 0.4, 0.5};

const Registration reg(Experiment{
    .name = "ablation_buffer_depth",
    .title = "Ablation: DXbar secondary-crossbar buffer depth",
    .paper_shape =
        "deeper FIFOs raise the saturation point at extra buffer energy; "
        "depth 4 (the paper's choice) sits at the knee",
    .axes =
        [](const RunContext& ctx) {
          Grid g{ctx.base,
                 {make_axis(
                      "load", kLoads,
                      [](double l) { return "load " + fmt(l, "%.1f"); },
                      [](SimConfig& c, double l) { c.offered_load = l; }),
                  make_axis(
                      "depth", kDepths,
                      [](int d) { return std::to_string(d); },
                      [](SimConfig& c, int d) { c.buffer_depth = d; })}};
          g.base.design = RouterDesign::DXbar;
          return g;
        },
    .reduce =
        [](const RunContext&, const GridView& g) {
          ExperimentResult r;
          r.add_table(grid_table(
              "Ablation: accepted load vs DXbar buffer depth", g, "depth",
              "load", &RunStats::accepted_load));
          r.add_table(grid_table(
              "Ablation: deflections per flit vs buffer depth", g, "depth",
              "load", &RunStats::deflections_per_flit));
          r.add_table(grid_table(
              "Ablation: buffer energy (nJ/packet) vs buffer depth", g,
              "depth", "load", buffer_nj_per_packet));
          return r;
        },
});

}  // namespace
}  // namespace dxbar::bench
