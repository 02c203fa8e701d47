// Closed-loop saturation — request throughput and end-to-end request
// latency (inject request -> eject reply) as a function of the per-node
// MLP window, all 8 designs.  Unlike the open-loop figures there is no
// offered-load axis: each client keeps up to `mlp` requests in flight,
// so the network self-throttles and the interesting question is where
// extra MLP stops buying throughput and starts buying only latency.
//
// Pure axes + reduce, so it composes with --resume and --seeds like
// every other grid experiment.  The p99 table reads a pooled quantile
// metric: under --seeds N the runner pools the replicas' latency
// histograms before taking p99 — a cell-wise mean of per-replica p99s is
// not the p99 of the pooled sample — while the ±ci95 columns keep
// reporting the per-replica p99 spread.
#include "exp_common.hpp"

namespace dxbar::bench {
namespace {

std::vector<int> mlp_windows(bool quick) {
  if (quick) return {1, 4, 16};
  return {1, 2, 4, 8, 16};
}

const Registration reg(Experiment{
    .name = "closedloop_saturation",
    .title = "Closed-loop request throughput/latency vs MLP (all 8 designs)",
    .paper_shape =
        "request throughput rises with MLP until the network saturates, "
        "then flattens while p99 request latency keeps climbing; the "
        "buffered crossbar designs (DXbar, Unified) sustain the highest "
        "request rates before the knee",
    .axes =
        [](const RunContext& ctx) {
          Grid g{ctx.base,
                 {all_designs(),
                  make_axis(
                      "mlp", mlp_windows(ctx.quick),
                      [](int m) { return std::to_string(m); },
                      [](SimConfig& c, int m) { c.mlp = m; })}};
          g.base.workload = WorkloadKind::ClosedLoop;
          return g;
        },
    .reduce =
        [](const RunContext& ctx, const GridView& g) {
          const double nodes = static_cast<double>(ctx.base.mesh_width) *
                               static_cast<double>(ctx.base.mesh_height);
          ExperimentResult r;
          r.add_table(grid_table(
              "Requests completed per node per kilocycle vs MLP", g, "mlp",
              "design", [nodes](const RunStats& st) {
                const double kilocycles =
                    static_cast<double>(st.cycles) / 1000.0;
                return kilocycles == 0.0
                           ? 0.0
                           : static_cast<double>(st.requests_completed) /
                                 (nodes * kilocycles);
              }));
          r.add_table(grid_table("Average request latency (cycles) vs MLP",
                                 g, "mlp", "design",
                                 &RunStats::avg_req_latency, "%10.1f"));
          r.add_table(grid_table("p99 request latency (cycles) vs MLP", g,
                                 "mlp", "design", req_quantile(0.99),
                                 "%10.1f"));
          r.addf("\nLatency is end-to-end: request inject -> reply eject, "
                 "including the\n%llu-cycle service delay at the "
                 "destination.\n",
                 static_cast<unsigned long long>(ctx.base.service_delay));
          return r;
        },
});

}  // namespace
}  // namespace dxbar::bench
