// Figure 8 — energy per packet at offered load 0.5 across all nine
// synthetic traffic patterns.
#include "exp_common.hpp"

namespace dxbar::bench {
namespace {

const Registration reg(Experiment{
    .name = "fig8",
    .title = "Figure 8: energy per packet at offered 0.5, all patterns",
    .paper_shape =
        "DXbar uses the least power, Flit-Bless the most, SCARAB second, "
        "the generic buffered routers in between",
    .axes = pattern_grid,
    .reduce =
        [](const RunContext&, const GridView& g) {
          const Table t = grid_table(
              "Figure 8: energy per packet (nJ) at offered load 0.5, all "
              "patterns",
              g, "pattern", "design", &RunStats::energy_per_packet_nj,
              "%10.3f");
          ExperimentResult r;
          r.add_table(t);
          r.addf("\nMean energy per packet across patterns:\n");
          for (std::size_t s = 0; s < t.series_labels.size(); ++s) {
            double sum = 0;
            for (double v : t.values[s]) sum += v;
            r.addf("  %-12s %.3f nJ\n", t.series_labels[s].c_str(),
                   sum / static_cast<double>(kNumPatterns));
          }
          return r;
        },
});

}  // namespace
}  // namespace dxbar::bench
