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
    .grid = splash_grid,
    .reduce =
        [](const RunContext&, const std::vector<RunStats>& stats) {
          const auto apps = splash_profiles();
          Table t;
          t.title =
              "Figure 10: energy per packet (nJ), SPLASH-2 substitute";
          t.x_label = "app";
          t.fmt = "%10.3f";
          for (const auto& app : apps) t.x.emplace_back(app.name);
          for (std::size_t s = 0; s < figure_designs().size(); ++s) {
            t.series_labels.emplace_back(figure_designs()[s].label);
            std::vector<double> col;
            for (std::size_t a = 0; a < apps.size(); ++a) {
              // Whole-run energy over packets delivered; not
              // energy_per_packet_nj(), which scales per-flit energy by
              // one packet length while SPLASH mixes 1- and 5-flit
              // packets.
              const RunStats& st = stats[s * apps.size() + a];
              col.push_back(st.packets_completed == 0
                                ? 0.0
                                : st.total_energy_nj() /
                                      static_cast<double>(
                                          st.packets_completed));
            }
            t.values.push_back(std::move(col));
          }

          ExperimentResult r;
          r.add_table(t);
          // Ratios versus DXbar DOR (series index 4).
          const std::size_t dxbar = 4;
          r.addf("\nMean energy ratio vs DXbar DOR:\n");
          for (std::size_t s = 0; s < t.series_labels.size(); ++s) {
            double ratio = 0;
            for (std::size_t a = 0; a < apps.size(); ++a) {
              ratio += t.values[s][a] / t.values[dxbar][a];
            }
            r.addf("  %-12s %.2fx\n", t.series_labels[s].c_str(),
                   ratio / static_cast<double>(apps.size()));
          }
          return r;
        },
});

}  // namespace
}  // namespace dxbar::bench
