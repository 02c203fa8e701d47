// Ablation — mesh-size scaling: does DXbar's advantage survive larger
// networks?  The paper evaluates 8x8 only; this sweeps 4x4..64x64 at a
// fixed relative load and reports throughput and latency per design.
#include "exp_common.hpp"

namespace dxbar::bench {
namespace {

/// Quick mode keeps the original small grid (the smoke fixture shape);
/// the full run extends into the large-radix regime the sharded
/// executor exists for.
std::vector<int> sizes(bool quick) {
  if (quick) return {4, 6, 8, 12, 16};
  return {4, 6, 8, 12, 16, 32, 64};
}

const Registration reg(Experiment{
    .name = "ablation_mesh_scaling",
    .title = "Ablation: mesh-size scaling 4x4..64x64",
    .paper_shape =
        "DXbar holds its acceptance advantage over Flit-Bless as the "
        "mesh grows; deflection cost rises with the average hop count",
    .axes =
        [](const RunContext& ctx) {
          return Grid{
              ctx.base,
              {design_axis({
                   {"Flit-Bless", RouterDesign::FlitBless, RoutingAlgo::DOR},
                   {"Buffered 8", RouterDesign::Buffered8, RoutingAlgo::DOR},
                   {"DXbar DOR", RouterDesign::DXbar, RoutingAlgo::DOR},
                   {"DXbar WF", RouterDesign::DXbar, RoutingAlgo::WestFirst},
               }),
               make_axis(
                   "mesh", sizes(ctx.quick),
                   [](int k) {
                     return std::to_string(k) + "x" + std::to_string(k);
                   },
                   [](SimConfig& c, int k) {
                     c.mesh_width = k;
                     c.mesh_height = k;
                     // Bisection-limited UR capacity shrinks as ~4/k
                     // flits/node/cycle; hold the *relative* load at ~60%
                     // of the k=8 reference point.
                     c.offered_load = 0.30 * 8.0 / static_cast<double>(k);
                     // Shard the big meshes across threads; bit-exact by
                     // construction (DESIGN.md §10), so the numbers are
                     // the same as a single-threaded run of the same
                     // point.
                     if (k >= 32) c.shards = 4;
                   })}};
        },
    .reduce =
        [](const RunContext&, const GridView& g) {
          ExperimentResult r;
          // Normalize accepted to offered so rows are comparable.
          r.add_table(grid_table(
              "Mesh scaling: acceptance ratio at ~60% relative load", g,
              "mesh", "design",
              [](const RunStats& st) {
                return st.accepted_load / st.offered_load;
              },
              "%10.3f"));
          r.add_table(grid_table("Mesh scaling: avg packet latency (cycles)",
                                 g, "mesh", "design",
                                 &RunStats::avg_packet_latency, "%10.1f"));
          r.addf(
              "\n(acceptance ratios marginally above 1.0 are "
              "warmup-backlog\n"
              " drain inside the measurement window — noise, not free "
              "lunch)\n");
          return r;
        },
});

}  // namespace
}  // namespace dxbar::bench
