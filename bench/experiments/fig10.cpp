// Figure 10 — network energy per packet for the nine SPLASH-2 workloads
// (coherence-traffic substitute), same closed-loop points as Fig 9.
#include "exp_common.hpp"

namespace dxbar::bench {
namespace {

const Registration reg(Experiment{
    .name = "fig10",
    .title = "Figure 10: SPLASH-2 energy per packet (closed loop)",
    .paper_shape =
        "Flit-Bless consumes far more energy than DXbar (the paper "
        "reports >=16x) and SCARAB >=2x; DXbar is the most frugal",
    .axes = splash_grid,
    .reduce =
        [](const RunContext&, const GridView& g) {
          // Whole-run energy over packets delivered; not
          // energy_per_packet_nj(), which scales per-flit energy by one
          // packet length while SPLASH mixes 1- and 5-flit packets.
          const Table t = grid_table(
              "Figure 10: energy per packet (nJ), SPLASH-2 substitute", g,
              "app", "design",
              [](const RunStats& st) {
                return st.packets_completed == 0
                           ? 0.0
                           : st.total_energy_nj() /
                                 static_cast<double>(st.packets_completed);
              },
              "%10.3f");
          ExperimentResult r;
          r.add_table(t);
          const std::size_t dxbar = g.axis("design").position("DXbar DOR");
          r.addf("\nMean energy ratio vs DXbar DOR:\n");
          for (std::size_t s = 0; s < t.series_labels.size(); ++s) {
            double ratio = 0;
            for (std::size_t a = 0; a < t.x.size(); ++a) {
              ratio += t.values[s][a] / t.values[dxbar][a];
            }
            r.addf("  %-12s %.2fx\n", t.series_labels[s].c_str(),
                   ratio / static_cast<double>(t.x.size()));
          }
          return r;
        },
});

}  // namespace
}  // namespace dxbar::bench
