// Ablation — extension baselines vs the paper's designs.
//
// Two routers beyond the paper's comparison set, built on the same
// substrates:
//  * Buffered VC — a classic 2-VC router with *speculative* switch
//    allocation (the Fig 2(c) baseline pipeline taken literally).  Its
//    speculation failures show why the paper's FIFO baseline is, if
//    anything, generous.
//  * AFC — adaptive flow control (Jafri et al., MICRO'10), the related
//    design the paper positions DXbar against: one mode at a time
//    (bufferless at low load, buffered at high load) instead of both
//    crossbar paths concurrently.
#include "exp_common.hpp"

namespace dxbar::bench {
namespace {

const Registration reg(Experiment{
    .name = "ablation_extensions",
    .title = "Ablation: extension baselines (Buffered VC, AFC) vs DXbar",
    .paper_shape =
        "AFC tracks Flit-Bless at low load and the buffered designs at "
        "high load; switching modes per-router never reaches DXbar",
    .axes =
        [](const RunContext& ctx) {
          return Grid{
              ctx.base,
              {design_axis({
                   {"Flit-Bless", RouterDesign::FlitBless, RoutingAlgo::DOR},
                   {"Buffered 4", RouterDesign::Buffered4, RoutingAlgo::DOR},
                   {"Buffered VC", RouterDesign::BufferedVC,
                    RoutingAlgo::DOR},
                   {"AFC", RouterDesign::Afc, RoutingAlgo::DOR},
                   {"DXbar DOR", RouterDesign::DXbar, RoutingAlgo::DOR},
               }),
               load_axis()}};
        },
    .reduce =
        [](const RunContext&, const GridView& g) {
          ExperimentResult r;
          r.add_table(grid_table(
              "Extensions: accepted load vs offered load (UR)", g, "offered",
              "design", &RunStats::accepted_load));
          r.add_table(grid_table("Extensions: energy per packet (nJ)", g,
                                 "offered", "design",
                                 &RunStats::energy_per_packet_nj, "%10.3f"));
          r.add_table(grid_table("Extensions: p99 packet latency (cycles)", g,
                                 "offered", "design", &RunStats::latency_p99,
                                 "%10.0f"));

          r.addf(
              "\nReading: AFC tracks Flit-Bless at low load (no buffer\n"
              "energy) and the buffered designs at high load, but "
              "switching\n"
              "modes per-router never reaches DXbar, which runs both "
              "paths\n"
              "concurrently — the paper's core argument.\n");
          return r;
        },
});

}  // namespace
}  // namespace dxbar::bench
