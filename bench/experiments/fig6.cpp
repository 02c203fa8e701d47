// Figure 6 — average energy per packet (nJ) vs offered load under
// Uniform Random traffic.
#include "exp_common.hpp"

namespace dxbar::bench {
namespace {

const Registration reg(Experiment{
    .name = "fig6",
    .title = "Figure 6: energy per packet vs offered load, UR 8x8",
    .paper_shape =
        "DXbar's energy stays nearly flat across loads; Flit-Bless rises "
        "~3x and SCARAB ~2x past their saturation points; the buffered "
        "routers sit in between, Buffered 8 above Buffered 4",
    .axes = load_sweep_grid,
    .reduce =
        [](const RunContext&, const GridView& g) {
          const Table t = grid_table(
              "Figure 6: average energy per packet (nJ) vs offered load, "
              "UR 8x8",
              g, "offered", "design", &RunStats::energy_per_packet_nj,
              "%10.3f");
          ExperimentResult r;
          r.add_table(t);
          r.addf("\nEnergy growth (load 0.9 vs load 0.1):\n");
          for (std::size_t s = 0; s < t.series_labels.size(); ++s) {
            r.addf("  %-12s %.2fx\n", t.series_labels[s].c_str(),
                   t.values[s].back() / t.values[s].front());
          }
          return r;
        },
});

}  // namespace
}  // namespace dxbar::bench
