// Ablation — stall-escape delay of the on/off flow control (an
// implementation knob of this reproduction; see router/dxbar_router.hpp).
//
// Small delays let congested FIFO heads push into stopped receivers
// quickly, maximising peak throughput on benign traffic but wasting
// deflection energy around hot spots; large delays keep hot-spot energy
// flat at some throughput cost.  The library default (16) balances the
// two; this bench regenerates the trade-off curve.
#include "exp_common.hpp"

namespace dxbar::bench {
namespace {

const std::vector<int> kDelays = {2, 4, 8, 16, 32, 64};

const Registration reg(Experiment{
    .name = "ablation_stall_escape",
    .title = "Ablation: stall-escape delay of the on/off flow control",
    .paper_shape =
        "small delays maximise peak throughput on benign traffic but "
        "waste deflection energy around hot spots; the default (16) "
        "balances the two",
    .axes =
        [](const RunContext& ctx) {
          Grid g{ctx.base,
                 {pattern_axis({TrafficPattern::UniformRandom,
                                TrafficPattern::NonUniformRandom,
                                TrafficPattern::Complement}),
                  make_axis(
                      "delay", kDelays,
                      [](int d) { return std::to_string(d); },
                      [](SimConfig& c, int d) { c.stall_escape_delay = d; })}};
          g.base.design = RouterDesign::DXbar;
          g.base.offered_load = 0.5;
          return g;
        },
    .reduce =
        [](const RunContext&, const GridView& g) {
          ExperimentResult r;
          r.add_table(grid_table(
              "Ablation: accepted load vs stall-escape delay (load 0.5)", g,
              "delay", "pattern", &RunStats::accepted_load));
          r.add_table(grid_table(
              "Ablation: energy per packet (nJ) vs stall-escape delay", g,
              "delay", "pattern", &RunStats::energy_per_packet_nj, "%10.3f"));
          r.add_table(grid_table(
              "Ablation: deflections per flit vs stall-escape delay", g,
              "delay", "pattern", &RunStats::deflections_per_flit));
          return r;
        },
});

}  // namespace
}  // namespace dxbar::bench
