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
    .grid = load_sweep_grid,
    .reduce =
        [](const RunContext&, const std::vector<RunStats>& stats) {
          const std::vector<double> loads = figure_loads();
          Table t;
          t.title = "Figure 5: accepted load (flits/node/cycle) vs offered "
                    "load, UR 8x8";
          t.x_label = "offered";
          for (double l : loads) t.x.push_back(fmt(l, "%.1f"));
          for (std::size_t s = 0; s < figure_designs().size(); ++s) {
            t.series_labels.emplace_back(figure_designs()[s].label);
            std::vector<double> col;
            for (std::size_t i = 0; i < loads.size(); ++i) {
              col.push_back(stats[s * loads.size() + i].accepted_load);
            }
            t.values.push_back(std::move(col));
          }

          ExperimentResult r;
          r.add_table(t);

          // Saturation summary (first offered load where acceptance < 90%).
          r.addf("\nSaturation points (acceptance < 90%% of offered):\n");
          for (std::size_t s = 0; s < t.series_labels.size(); ++s) {
            r.addf("  %-12s %.2f\n", t.series_labels[s].c_str(),
                   report::saturation_from_points(loads, t.values[s]));
          }
          return r;
        },
});

}  // namespace
}  // namespace dxbar::bench
