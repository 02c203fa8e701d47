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
    .grid = pattern_grid,
    .reduce =
        [](const RunContext&, const std::vector<RunStats>& stats) {
          Table t;
          t.title =
              "Figure 7: accepted load at offered load 0.5, all patterns";
          t.x_label = "pattern";
          for (TrafficPattern p : kAllPatterns) t.x.emplace_back(to_string(p));
          for (std::size_t s = 0; s < figure_designs().size(); ++s) {
            t.series_labels.emplace_back(figure_designs()[s].label);
            std::vector<double> col;
            for (int i = 0; i < kNumPatterns; ++i) {
              col.push_back(
                  stats[s * kNumPatterns + static_cast<std::size_t>(i)]
                      .accepted_load);
            }
            t.values.push_back(std::move(col));
          }

          ExperimentResult r;
          r.add_table(t);
          r.addf("\nBest design per pattern:\n");
          for (int i = 0; i < kNumPatterns; ++i) {
            std::size_t best = 0;
            for (std::size_t s = 1; s < t.series_labels.size(); ++s) {
              if (t.values[s][static_cast<std::size_t>(i)] >
                  t.values[best][static_cast<std::size_t>(i)]) {
                best = s;
              }
            }
            r.addf("  %-4s %s (%.4f)\n",
                   t.x[static_cast<std::size_t>(i)].c_str(),
                   t.series_labels[best].c_str(),
                   t.values[best][static_cast<std::size_t>(i)]);
          }
          return r;
        },
});

}  // namespace
}  // namespace dxbar::bench
