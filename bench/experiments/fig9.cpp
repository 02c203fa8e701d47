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
    .grid = splash_grid,
    .reduce =
        [](const RunContext&, const std::vector<RunStats>& stats) {
          const auto apps = splash_profiles();
          // Normalize to Buffered 4 (series index 2 in figure_designs()).
          const std::size_t baseline = 2;
          Table t;
          t.title = "Figure 9: normalized execution time (Buffered 4 = "
                    "1.0), SPLASH-2 substitute";
          t.x_label = "app";
          t.fmt = "%10.3f";
          for (const auto& app : apps) t.x.emplace_back(app.name);
          for (std::size_t s = 0; s < figure_designs().size(); ++s) {
            t.series_labels.emplace_back(figure_designs()[s].label);
            std::vector<double> col;
            for (std::size_t a = 0; a < apps.size(); ++a) {
              const double base = static_cast<double>(
                  stats[baseline * apps.size() + a].cycles);
              col.push_back(
                  static_cast<double>(stats[s * apps.size() + a].cycles) /
                  base);
            }
            t.values.push_back(std::move(col));
          }

          ExperimentResult r;
          r.add_table(std::move(t));
          bool all_finished = true;
          for (const RunStats& st : stats) {
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
