// Closed-loop fault tail — what BIST-detected crossbar faults cost in
// request TAIL latency.  The paper's fault figures (fig11/fig12) show
// open-loop throughput barely degrading under faults; a closed-loop
// client cares about a different number: the p99 of request round-trips
// that must detour around degraded routers.  Sweeps the crossbar fault
// fraction for the fault-tolerant designs at a fixed MLP window.
#include "exp_common.hpp"

namespace dxbar::bench {
namespace {

const Registration reg(Experiment{
    .name = "closedloop_fault_tail",
    .title = "Closed-loop request tail latency vs crossbar fault fraction",
    .paper_shape =
        "mean request latency stays nearly flat with faults (matching "
        "the open-loop throughput story) but p99 grows with the fault "
        "fraction as round-trips through degraded routers stack both "
        "directions; DOR keeps the tail growth smallest",
    .axes =
        [](const RunContext& ctx) {
          Grid g{ctx.base,
                 {design_axis({
                      {"DXbar DOR", RouterDesign::DXbar, RoutingAlgo::DOR},
                      {"DXbar WF", RouterDesign::DXbar,
                       RoutingAlgo::WestFirst},
                      {"Unified DOR", RouterDesign::UnifiedXbar,
                       RoutingAlgo::DOR},
                  }),
                  crossbar_fault_axis("faults", "%.0f%%")}};
          g.base.workload = WorkloadKind::ClosedLoop;
          return g;
        },
    .reduce =
        [](const RunContext& ctx, const GridView& g) {
          const Table p99 = grid_table(
              "p99 request latency (cycles) vs fault fraction", g, "faults",
              "design", req_quantile(0.99), "%10.1f");
          ExperimentResult r;
          r.add_table(grid_table(
              "Average request latency (cycles) vs fault fraction", g,
              "faults", "design", &RunStats::avg_req_latency, "%10.1f"));
          r.add_table(p99);
          r.add_table(grid_table(
              "Max request latency (cycles) vs fault fraction", g, "faults",
              "design", &RunStats::req_latency_max, "%10.1f"));

          // Tail-amplification summary: p99 growth vs the fault-free run.
          r.addf("\np99 tail amplification vs fault-free (mlp %d):\n",
                 ctx.base.mlp);
          for (std::size_t s = 0; s < p99.series_labels.size(); ++s) {
            const double base = p99.values[s][0];
            const double worst = p99.values[s].back();
            r.addf("  %-12s %.2fx\n", p99.series_labels[s].c_str(),
                   base == 0.0 ? 0.0 : worst / base);
          }
          return r;
        },
});

}  // namespace
}  // namespace dxbar::bench
