// Figure 12 — latency (a) and power/energy (b: DOR, c: WF) of the DXbar
// network with varying percentages of router crossbar faults.
#include "exp_common.hpp"

namespace dxbar::bench {
namespace {

const Registration reg(Experiment{
    .name = "fig12",
    .title = "Figure 12: DXbar latency/energy with crossbar faults",
    .paper_shape =
        "energy rises with the fault percentage because degraded routers "
        "buffer every flit, adding buffer read/write energy on top of "
        "the crossbar/link energy",
    .axes = [](const RunContext& ctx) { return crossbar_fault_grid(ctx, 0.2); },
    .reduce =
        [](const RunContext&, const GridView& g) {
          ExperimentResult r;
          const Axis& algos = g.axis("routing");
          for (std::size_t a = 0; a < algos.values.size(); ++a) {
            const GridView v = g.fix("routing", a);
            const std::string& algo = algos.values[a].label;
            r.add_table(grid_table(
                "Figure 12(a): average packet latency (cycles), DXbar " +
                    algo + " with crossbar faults",
                v, "offered", "faults", &RunStats::avg_packet_latency,
                "%10.1f"));
            r.add_table(grid_table(
                "Figure 12(b/c): energy per packet (nJ), DXbar " + algo, v,
                "offered", "faults", &RunStats::energy_per_packet_nj,
                "%10.3f"));
            r.add_table(grid_table(
                "  of which buffer energy (nJ/packet), DXbar " + algo, v,
                "offered", "faults", buffer_nj_per_packet, "%10.4f"));
          }
          return r;
        },
});

}  // namespace
}  // namespace dxbar::bench
