// Figure 5 — throughput (accepted vs offered load) under Uniform Random
// traffic for all router designs on the 8x8 mesh.
#include "exp_common.hpp"
#include "report/analysis.hpp"

namespace dxbar::bench {
namespace {

const Registration reg(Experiment{
    .name = "fig5",
    .title = "Figure 5: accepted vs offered load, UR 8x8, all designs",
    .paper_shape =
        "DXbar DOR saturates at >0.4 (best), DXbar WF slightly below, "
        "Buffered 8 ~20% below DXbar, Buffered 4 / Flit-Bless / SCARAB "
        "~40% below with saturation under 0.3",
    .axes = load_sweep_grid,
    .reduce =
        [](const RunContext&, const GridView& g) {
          const Table t = grid_table(
              "Figure 5: accepted load (flits/node/cycle) vs offered load, "
              "UR 8x8",
              g, "offered", "design", &RunStats::accepted_load);
          ExperimentResult r;
          r.add_table(t);

          // Saturation summary (first offered load where acceptance < 90%).
          r.addf("\nSaturation points (acceptance < 90%% of offered):\n");
          for (std::size_t s = 0; s < t.series_labels.size(); ++s) {
            r.addf("  %-12s %.2f\n", t.series_labels[s].c_str(),
                   report::saturation_from_points(figure_loads(),
                                                  t.values[s]));
          }
          return r;
        },
});

}  // namespace
}  // namespace dxbar::bench
