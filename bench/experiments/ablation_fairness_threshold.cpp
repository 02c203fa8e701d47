// Ablation — fairness-counter threshold sweep (paper section II.A.2).
//
// The paper reports that a threshold of four gives the best performance
// after testing different traffic patterns: too small interrupts the
// primary-crossbar flow (and fights the credit/launch round trip), too
// large leaves center nodes starved.  This bench reproduces that sweep
// and additionally reports the worst-case packet latency, which is what
// starvation actually moves.
#include <algorithm>

#include "exp_common.hpp"
#include "traffic/patterns.hpp"

namespace dxbar::bench {
namespace {

const std::vector<int> kThresholds = {1, 2, 4, 8, 16, 64};
const std::vector<TrafficPattern> kPatterns = {
    TrafficPattern::UniformRandom, TrafficPattern::NonUniformRandom,
    TrafficPattern::Transpose};

const Registration reg(Experiment{
    .name = "ablation_fairness_threshold",
    .title = "Ablation: fairness-counter threshold sweep",
    .paper_shape =
        "threshold 4 gives the best performance across patterns; smaller "
        "interrupts the primary-crossbar flow, larger starves the center "
        "nodes (visible in their p99/max latency)",
    .axes =
        [](const RunContext& ctx) {
          Grid g{ctx.base,
                 {pattern_axis(kPatterns),
                  make_axis(
                      "threshold", kThresholds,
                      [](int t) { return std::to_string(t); },
                      [](SimConfig& c, int t) { c.fairness_threshold = t; })}};
          g.base.design = RouterDesign::DXbar;
          g.base.offered_load = 0.45;  // near saturation, where fairness
                                       // matters
          return g;
        },
    .reduce =
        [](const RunContext& ctx, const GridView& g) {
          ExperimentResult r;
          r.add_table(grid_table(
              "Ablation: accepted load vs fairness threshold (load 0.45)", g,
              "threshold", "pattern", &RunStats::accepted_load));
          r.add_table(grid_table(
              "Ablation: avg packet latency vs fairness threshold", g,
              "threshold", "pattern", &RunStats::avg_packet_latency,
              "%10.1f"));

          // The counter's real job: bounding starvation of the *center*
          // nodes, whose injected flits keep losing to older
          // edge-injected traffic.  Measure the p99 latency of packets
          // sourced by the 4 center nodes under UR (detailed runs are
          // serial; keep the sweep small).
          const Mesh mesh(ctx.base.mesh_width, ctx.base.mesh_height);
          std::vector<SimConfig> detail_cfgs;
          for (int t : kThresholds) {
            SimConfig c = ctx.base;
            c.design = RouterDesign::DXbar;
            c.offered_load = 0.45;
            c.fairness_threshold = t;
            detail_cfgs.push_back(c);
          }
          std::vector<DetailedRun> runs(detail_cfgs.size());
          parallel_for(
              detail_cfgs.size(),
              [&](std::size_t i) {
                runs[i] = run_open_loop_detailed(detail_cfgs[i]);
              },
              ctx.threads);
          const std::vector<std::string> x = g.axis("threshold").labels();
          r.addf("\nCenter-node fairness (UR, load 0.45):\n");
          r.addf("%-10s %16s %16s\n", "threshold", "center p99 (cy)",
                 "center max (cy)");
          for (std::size_t i = 0; i < runs.size(); ++i) {
            std::vector<double> lats;
            for (const PacketRecord& p : runs[i].packets) {
              if (is_hotspot(mesh, p.src)) {
                lats.push_back(static_cast<double>(p.latency()));
              }
            }
            std::sort(lats.begin(), lats.end());
            const double p99 =
                lats.empty()
                    ? 0.0
                    : lats[static_cast<std::size_t>(
                          0.99 * static_cast<double>(lats.size() - 1))];
            const double mx = lats.empty() ? 0.0 : lats.back();
            r.addf("%-10s %16.0f %16.0f\n", x[i].c_str(), p99, mx);
          }
          return r;
        },
});

}  // namespace
}  // namespace dxbar::bench
