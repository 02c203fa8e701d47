// Ablation — energy scaling across technology nodes and mesh sizes.
// The parametric power model (power/tech_params.hpp) derives every
// per-event energy from wire/gate capacitances, so the same simulated
// traffic can be costed at 65/32/16 nm and on larger meshes without
// recalibrating constants.  This experiment sweeps both axes and shows
// (a) how much a tech shrink buys each design and (b) that the paper's
// design ranking is preserved across nodes and at 16x16.
//
// The tech node never changes cycle-level behaviour, so run_sweep
// simulates each (mesh, design) point once and prices the 32 and 16 nm
// columns from the same event counts: "same traffic, same event counts"
// holds literally.  Pure grid + reduce, so it composes with --resume
// and --seeds like every other grid experiment.
#include "exp_common.hpp"

namespace dxbar::bench {
namespace {

const std::vector<int> kTechNodes = {65, 32, 16};
const std::vector<int> kMeshWidths = {8, 16};

const Registration reg(Experiment{
    .name = "ablation_energy_scaling",
    .title = "Ablation: per-flit energy across tech nodes and mesh sizes",
    .paper_shape =
        "every design's pJ/flit shrinks monotonically 65 > 32 > 16 nm "
        "while the design ranking (bufferless < DXbar < Unified < "
        "buffered at low load) is preserved at both 8x8 and 16x16; the "
        "buffer share grows with mesh size for the buffered baseline",
    .axes =
        [](const RunContext& ctx) {
          return Grid{
              ctx.base,
              {make_axis(
                   "mesh", kMeshWidths,
                   [](int w) {
                     return std::to_string(w) + "x" + std::to_string(w);
                   },
                   [](SimConfig& c, int w) {
                     c.mesh_width = w;
                     c.mesh_height = w;
                   }),
               make_axis(
                   "nm", kTechNodes, [](int n) { return std::to_string(n); },
                   [](SimConfig& c, int n) { c.tech_node = n; }),
               design_axis({
                   {"Flit-Bless", RouterDesign::FlitBless, RoutingAlgo::DOR},
                   {"Buffered 4", RouterDesign::Buffered4, RoutingAlgo::DOR},
                   {"DXbar DOR", RouterDesign::DXbar, RoutingAlgo::DOR},
                   {"Unified DOR", RouterDesign::UnifiedXbar,
                    RoutingAlgo::DOR},
               })}};
        },
    .reduce =
        [](const RunContext&, const GridView& g) {
          ExperimentResult r;
          const Axis& meshes = g.axis("mesh");
          for (std::size_t m = 0; m < meshes.values.size(); ++m) {
            r.add_table(grid_table(
                "Energy per flit (pJ) vs tech node, " +
                    meshes.values[m].label + " mesh",
                g.fix("mesh", m), "nm", "design",
                [](const RunStats& st) {
                  return st.energy_per_flit_nj() * 1000.0;
                },
                "%10.1f"));
          }

          // Component split at the newest-but-one node (32 nm) — where
          // the shrink leaves the budget.
          const std::size_t node32 = g.axis("nm").position("32");
          const Axis& designs = g.axis("design");
          for (std::size_t m = 0; m < meshes.values.size(); ++m) {
            Table t;
            t.title = "Energy split at 32 nm (pJ/flit), " +
                      meshes.values[m].label + " mesh";
            t.x_label = "component";
            t.x = {"buffer", "xbar", "link", "control"};
            t.series_labels = designs.labels();
            t.fmt = "%10.2f";
            t.values.assign(designs.values.size(), {});
            for (std::size_t s = 0; s < designs.values.size(); ++s) {
              const RunStats& st = g.at(m, node32, s);
              const double flits =
                  st.flits_ejected > 0
                      ? static_cast<double>(st.flits_ejected)
                      : 1.0;
              for (double nj :
                   {st.energy_buffer_nj, st.energy_crossbar_nj,
                    st.energy_link_nj, st.energy_control_nj}) {
                t.values[s].push_back(1000.0 * nj / flits);
              }
            }
            r.add_table(std::move(t));
          }

          // Shrink factor 65 -> 16 nm for the paper's headline design.
          const auto dxbar_8x8 = [&](const char* node) {
            return g
                .at(meshes.position("8x8"), g.axis("nm").position(node),
                    designs.position("DXbar DOR"))
                .energy_per_flit_nj();
          };
          const double at65 = dxbar_8x8("65");
          const double at16 = dxbar_8x8("16");
          if (at16 > 0.0) {
            r.addf(
                "\nDXbar 8x8 per-flit energy shrinks %.1fx from 65 nm to "
                "16 nm\n(lower Vdd, shorter wires; same traffic, same "
                "event counts).\n",
                at65 / at16);
          }
          return r;
        },
});

}  // namespace
}  // namespace dxbar::bench
