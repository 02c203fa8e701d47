// Closed-loop hotspot — reply-induced congestion.  A fraction of every
// client's requests target the four centre nodes; each request produces
// a reply, so a hotspot congests twice (requests in, replies out) and
// the reply path is what an open-loop hotspot sweep cannot show.  The
// tail (p99) separates designs long before the mean moves.
#include "exp_common.hpp"

namespace dxbar::bench {
namespace {

std::vector<double> hotspot_fractions(bool quick) {
  if (quick) return {0.0, 0.4, 0.8};
  return {0.0, 0.2, 0.4, 0.6, 0.8};
}

const Registration reg(Experiment{
    .name = "closedloop_hotspot",
    .title = "Closed-loop request tail latency vs hotspot fraction",
    .paper_shape =
        "p99 request latency grows sharply with the hotspot fraction as "
        "reply traffic concentrates at the centre; bufferless designs "
        "degrade first (deflections multiply around the hotspot), the "
        "unified/dual-crossbar designs hold the tail flattest",
    .axes =
        [](const RunContext& ctx) {
          Grid g{ctx.base,
                 {figure_designs(),
                  make_axis(
                      "hotspot", hotspot_fractions(ctx.quick),
                      [](double h) { return fmt(h, "%.1f"); },
                      [](SimConfig& c, double h) { c.hotspot_fraction = h; })}};
          g.base.workload = WorkloadKind::ClosedLoop;
          return g;
        },
    .reduce =
        [](const RunContext& ctx, const GridView& g) {
          ExperimentResult r;
          r.add_table(grid_table(
              "p50 request latency (cycles) vs hotspot fraction", g,
              "hotspot", "design", req_quantile(0.50), "%10.1f"));
          r.add_table(grid_table(
              "p99 request latency (cycles) vs hotspot fraction", g,
              "hotspot", "design", req_quantile(0.99), "%10.1f"));
          r.add_table(grid_table("Requests completed vs hotspot fraction", g,
                                 "hotspot", "design",
                                 &RunStats::requests_completed, "%10.0f"));
          r.addf("\nHotspot servers are the four centre nodes; each request "
                 "draws a\nreply back through the same region (mlp %d).\n",
                 ctx.base.mlp);
          return r;
        },
});

}  // namespace
}  // namespace dxbar::bench
