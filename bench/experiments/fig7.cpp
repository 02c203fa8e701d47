// Figure 7 — throughput at offered load 0.5 across all nine synthetic
// traffic patterns.
#include "exp_common.hpp"

namespace dxbar::bench {
namespace {

const Registration reg(Experiment{
    .name = "fig7",
    .title = "Figure 7: accepted load at offered 0.5, all patterns",
    .paper_shape =
        "DXbar DOR best for UR, NUR, CP and TOR; DXbar WF highly "
        "competitive for the patterns that favour adaptivity (BR, BF, "
        "MT, PS)",
    .axes = pattern_grid,
    .reduce =
        [](const RunContext&, const GridView& g) {
          const Table t = grid_table(
              "Figure 7: accepted load at offered load 0.5, all patterns", g,
              "pattern", "design", &RunStats::accepted_load);
          ExperimentResult r;
          r.add_table(t);
          r.addf("\nBest design per pattern:\n");
          for (std::size_t i = 0; i < t.x.size(); ++i) {
            std::size_t best = 0;
            for (std::size_t s = 1; s < t.series_labels.size(); ++s) {
              if (t.values[s][i] > t.values[best][i]) best = s;
            }
            r.addf("  %-4s %s (%.4f)\n", t.x[i].c_str(),
                   t.series_labels[best].c_str(), t.values[best][i]);
          }
          return r;
        },
});

}  // namespace
}  // namespace dxbar::bench
