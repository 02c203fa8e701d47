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

const Registration reg(Experiment{
    .name = "table_saturation",
    .title = "Saturation point per design (UR 8x8, DOR, all 8 designs)",
    .paper_shape =
        "DXbar and Unified saturate highest (>0.4), Buffered 8 next, "
        "bufferless designs (Flit-Bless, SCARAB) lowest at <0.3",
    .axes =
        [](const RunContext& ctx) {
          Grid g{ctx.base, {all_designs(), load_axis()}};
          g.base.pattern = TrafficPattern::UniformRandom;
          return g;
        },
    .reduce =
        [](const RunContext&, const GridView& g) {
          const Axis& designs = g.axis("design");
          Table t;
          t.title = "Saturation point per design, UR 8x8 DOR";
          t.x_label = "design";
          t.x = designs.labels();
          t.fmt = "%10.2f";
          t.series_labels = {"saturation", "peak accepted"};
          t.values.assign(2, {});
          for (std::size_t s = 0; s < designs.values.size(); ++s) {
            const std::vector<double> accepted =
                g.fix("design", s).column(&RunStats::accepted_load);
            // A design that never dips below 90% acceptance reports the
            // sweep's upper edge.
            t.values[0].push_back(
                report::saturation_from_points(figure_loads(), accepted));
            t.values[1].push_back(
                *std::max_element(accepted.begin(), accepted.end()));
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
