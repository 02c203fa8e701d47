// Saturation-point table — the paper's headline throughput comparison
// reduced to one number per design: the first offered load (UR 8x8)
// where acceptance drops below 90% of offered, plus the peak accepted
// load over the sweep.  Covers all eight router designs, including the
// BufferedVC / AFC extensions the legend figures leave out.
//
// Pure grid + reduce, so it composes with --resume and the warm-start
// sweep like every other grid experiment.
#include <algorithm>

#include "exp_common.hpp"
#include "report/analysis.hpp"

namespace dxbar::bench {
namespace {

const std::vector<RouterDesign>& all_designs() {
  static const std::vector<RouterDesign> v = {
      RouterDesign::FlitBless, RouterDesign::Scarab,
      RouterDesign::Buffered4, RouterDesign::Buffered8,
      RouterDesign::DXbar,     RouterDesign::UnifiedXbar,
      RouterDesign::BufferedVC, RouterDesign::Afc,
  };
  return v;
}

const Registration reg(Experiment{
    .name = "table_saturation",
    .title = "Saturation point per design (UR 8x8, DOR, all 8 designs)",
    .paper_shape =
        "DXbar and Unified saturate highest (>0.4), Buffered 8 next, "
        "bufferless designs (Flit-Bless, SCARAB) lowest at <0.3",
    .grid =
        [](const RunContext& ctx) {
          std::vector<SimConfig> cfgs;
          for (RouterDesign d : all_designs()) {
            for (double l : figure_loads()) {
              SimConfig c = ctx.base;
              c.pattern = TrafficPattern::UniformRandom;
              c.design = d;
              c.routing = RoutingAlgo::DOR;
              c.offered_load = l;
              cfgs.push_back(c);
            }
          }
          return cfgs;
        },
    .reduce =
        [](const RunContext&, const std::vector<RunStats>& stats) {
          const std::vector<double> loads = figure_loads();
          Table t;
          t.title = "Saturation point per design, UR 8x8 DOR";
          t.x_label = "design";
          t.fmt = "%10.2f";
          t.series_labels = {"saturation", "peak accepted"};
          t.values.assign(2, {});
          for (std::size_t s = 0; s < all_designs().size(); ++s) {
            t.x.emplace_back(to_string(all_designs()[s]));
            std::vector<double> accepted;
            double peak = 0.0;
            for (std::size_t i = 0; i < loads.size(); ++i) {
              accepted.push_back(stats[s * loads.size() + i].accepted_load);
              peak = std::max(peak, accepted.back());
            }
            // A design that never dips below 90% acceptance reports the
            // sweep's upper edge.
            t.values[0].push_back(
                report::saturation_from_points(loads, accepted));
            t.values[1].push_back(peak);
          }

          ExperimentResult r;
          r.add_table(t);
          r.addf("\nSaturation = first offered load with acceptance below "
                 "90%% of offered;\npeak accepted = max accepted load over "
                 "the 0.1-0.9 sweep.\n");
          return r;
        },
});

}  // namespace
}  // namespace dxbar::bench
