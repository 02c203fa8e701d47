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

const std::vector<DesignVariant>& scaling_designs() {
  static const std::vector<DesignVariant> v = {
      {"Flit-Bless", RouterDesign::FlitBless, RoutingAlgo::DOR},
      {"Buffered 4", RouterDesign::Buffered4, RoutingAlgo::DOR},
      {"DXbar DOR", RouterDesign::DXbar, RoutingAlgo::DOR},
      {"Unified DOR", RouterDesign::UnifiedXbar, RoutingAlgo::DOR},
  };
  return v;
}

const Registration reg(Experiment{
    .name = "ablation_energy_scaling",
    .title = "Ablation: per-flit energy across tech nodes and mesh sizes",
    .paper_shape =
        "every design's pJ/flit shrinks monotonically 65 > 32 > 16 nm "
        "while the design ranking (bufferless < DXbar < Unified < "
        "buffered at low load) is preserved at both 8x8 and 16x16; the "
        "buffer share grows with mesh size for the buffered baseline",
    .grid =
        [](const RunContext& ctx) {
          std::vector<SimConfig> cfgs;
          for (int width : kMeshWidths) {
            for (int node : kTechNodes) {
              for (const DesignVariant& dv : scaling_designs()) {
                SimConfig c = ctx.base;
                c.mesh_width = width;
                c.mesh_height = width;
                c.tech_node = node;
                c.design = dv.design;
                c.routing = dv.routing;
                cfgs.push_back(c);
              }
            }
          }
          return cfgs;
        },
    .reduce =
        [](const RunContext&, const std::vector<RunStats>& stats) {
          ExperimentResult r;
          std::vector<std::string> x;
          for (int node : kTechNodes) x.push_back(std::to_string(node));
          std::vector<std::string> labels;
          for (const DesignVariant& dv : scaling_designs()) {
            labels.emplace_back(dv.label);
          }

          // Grid order is mesh-major, then tech, then design; tables
          // want [design][tech] per mesh.
          const std::size_t n_designs = labels.size();
          const std::size_t per_mesh = kTechNodes.size() * n_designs;
          for (std::size_t m = 0; m < kMeshWidths.size(); ++m) {
            Table t;
            t.title = "Energy per flit (pJ) vs tech node, " +
                      std::to_string(kMeshWidths[m]) + "x" +
                      std::to_string(kMeshWidths[m]) + " mesh";
            t.x_label = "nm";
            t.x = x;
            t.series_labels = labels;
            t.fmt = "%10.1f";
            t.values.assign(n_designs, {});
            for (std::size_t s = 0; s < n_designs; ++s) {
              for (std::size_t n = 0; n < kTechNodes.size(); ++n) {
                const RunStats& st =
                    stats[m * per_mesh + n * n_designs + s];
                t.values[s].push_back(st.energy_per_flit_nj() * 1000.0);
              }
            }
            r.add_table(std::move(t));
          }

          // Component split at the newest-but-one node (32 nm) — where
          // the shrink leaves the budget.
          const std::size_t node32 = 1;  // kTechNodes index of 32 nm
          for (std::size_t m = 0; m < kMeshWidths.size(); ++m) {
            Table t;
            t.title = "Energy split at 32 nm (pJ/flit), " +
                      std::to_string(kMeshWidths[m]) + "x" +
                      std::to_string(kMeshWidths[m]) + " mesh";
            t.x_label = "component";
            t.x = {"buffer", "xbar", "link", "control"};
            t.series_labels = labels;
            t.fmt = "%10.2f";
            t.values.assign(n_designs, {});
            for (std::size_t s = 0; s < n_designs; ++s) {
              const RunStats& st =
                  stats[m * per_mesh + node32 * n_designs + s];
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
          const std::size_t dxbar = 2;  // scaling_designs index
          const double at65 = stats[dxbar].energy_per_flit_nj();
          const double at16 =
              stats[(kTechNodes.size() - 1) * n_designs + dxbar]
                  .energy_per_flit_nj();
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
