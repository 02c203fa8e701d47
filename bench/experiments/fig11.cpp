// Figure 11 — throughput (a: DOR, b: WF) and latency (c) of the DXbar
// network with a varying percentage of router crossbar faults, uniform
// random traffic.
#include <algorithm>

#include "exp_common.hpp"

namespace dxbar::bench {
namespace {

const Registration reg(Experiment{
    .name = "fig11",
    .title = "Figure 11: DXbar throughput/latency with crossbar faults",
    .paper_shape =
        "with DOR the throughput degradation stays below ~10% even at "
        "100% faults (faulty routers degrade to buffered single-crossbar "
        "operation); with WF the degradation reaches ~33% at high load",
    .axes = [](const RunContext& ctx) { return crossbar_fault_grid(ctx, 0.1); },
    .reduce =
        [](const RunContext&, const GridView& g) {
          ExperimentResult r;
          const Axis& algos = g.axis("routing");
          for (std::size_t a = 0; a < algos.values.size(); ++a) {
            const GridView v = g.fix("routing", a);
            const std::string& algo = algos.values[a].label;
            const Table thr = grid_table(
                "Figure 11(" + std::string(a == 0 ? "a" : "b") +
                    "): accepted load vs offered load, DXbar " + algo +
                    " with crossbar faults",
                v, "offered", "faults", &RunStats::accepted_load);
            r.add_table(thr);
            r.add_table(grid_table(
                "Figure 11(c): average packet latency (cycles), DXbar " +
                    algo,
                v, "offered", "faults", &RunStats::avg_packet_latency,
                "%10.1f"));

            // Peak-throughput degradation summary.
            auto peak = [&](std::size_t s) {
              double p = 0;
              for (double x : thr.values[s]) p = std::max(p, x);
              return p;
            };
            r.addf("\nPeak-throughput degradation vs fault-free (%s):\n",
                   algo.c_str());
            for (std::size_t s = 1; s < thr.series_labels.size(); ++s) {
              r.addf("  %-12s %.1f%%\n", thr.series_labels[s].c_str(),
                     100.0 * (1.0 - peak(s) / peak(0)));
            }
          }
          return r;
        },
});

}  // namespace
}  // namespace dxbar::bench
