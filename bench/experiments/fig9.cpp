// Figure 9 — normalized execution time of the nine SPLASH-2 workloads
// (coherence-traffic substitute; see DESIGN.md section 4), normalized to
// the Buffered 4 baseline per application.  Closed-loop runs: the
// network's round-trip latency feeds back into each node's issue rate
// through the MSHR limit, which is what makes "execution time" (the
// run's `cycles`) a property of the router design.
#include "exp_common.hpp"

namespace dxbar::bench {
namespace {

const Registration reg(Experiment{
    .name = "fig9",
    .title = "Figure 9: SPLASH-2 normalized execution time (closed loop)",
    .paper_shape =
        "DXbar DOR performs best for most traces (DOR above WF); "
        "Flit-Bless and SCARAB keep up at these low-to-moderate loads "
        "and can even edge ahead for FFT",
    .axes = splash_grid,
    .reduce =
        [](const RunContext&, const GridView& g) {
          Table t = grid_table(
              "Figure 9: normalized execution time (Buffered 4 = 1.0), "
              "SPLASH-2 substitute",
              g, "app", "design", &RunStats::cycles, "%10.3f");
          const std::vector<double> base =
              t.values[g.axis("design").position("Buffered 4")];
          for (std::vector<double>& col : t.values) {
            for (std::size_t a = 0; a < col.size(); ++a) col[a] /= base[a];
          }

          ExperimentResult r;
          r.add_table(std::move(t));
          bool all_finished = true;
          for (const RunStats& st : g.stats()) {
            all_finished = all_finished && st.drained;
          }
          r.addf("\nall workloads completed: %s\n",
                 all_finished ? "yes" : "NO");
          r.exit_code = all_finished ? 0 : 1;
          return r;
        },
});

}  // namespace
}  // namespace dxbar::bench
