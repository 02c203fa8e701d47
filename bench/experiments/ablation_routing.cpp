// Ablation — routing algorithms on DXbar: the paper's DOR / West-First
// pair plus the extension turn models (negative-first, north-last),
// across the adversarial synthetic patterns where adaptivity matters.
#include "exp_common.hpp"

namespace dxbar::bench {
namespace {

const Registration reg(Experiment{
    .name = "ablation_routing",
    .title = "Ablation: routing algorithms on DXbar across patterns",
    .paper_shape =
        "DOR wins on UR; the partially-adaptive turn models win on the "
        "adversarial permutations they can route around",
    .axes =
        [](const RunContext& ctx) {
          Grid g{ctx.base,
                 {routing_axis({RoutingAlgo::DOR, RoutingAlgo::WestFirst,
                                RoutingAlgo::NegativeFirst,
                                RoutingAlgo::NorthLast}),
                  pattern_axis({TrafficPattern::UniformRandom,
                                TrafficPattern::BitReversal,
                                TrafficPattern::Transpose,
                                TrafficPattern::PerfectShuffle,
                                TrafficPattern::Tornado,
                                TrafficPattern::Complement})}};
          g.base.design = RouterDesign::DXbar;
          g.base.offered_load = 0.5;
          return g;
        },
    .reduce =
        [](const RunContext&, const GridView& g) {
          ExperimentResult r;
          r.add_table(grid_table(
              "Routing ablation: accepted load at offered 0.5, DXbar", g,
              "pattern", "routing", &RunStats::accepted_load));
          r.add_table(grid_table("Routing ablation: p99 latency (cycles)", g,
                                 "pattern", "routing", &RunStats::latency_p99,
                                 "%10.0f"));
          return r;
        },
});

}  // namespace
}  // namespace dxbar::bench
