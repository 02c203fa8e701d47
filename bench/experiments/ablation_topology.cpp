// Ablation (extension) — mesh vs torus: wrap links double the bisection
// bandwidth and cut the average distance by ~25% on an 8x8 network; the
// escape-valve designs exploit them without VC datelines.
#include "exp_common.hpp"

namespace dxbar::bench {
namespace {

struct Variant {
  const char* label;
  RouterDesign design;
  bool torus;
};
const std::vector<Variant>& variants() {
  static const std::vector<Variant> v = {
      {"DXbar mesh", RouterDesign::DXbar, false},
      {"DXbar torus", RouterDesign::DXbar, true},
      {"Bless mesh", RouterDesign::FlitBless, false},
      {"Bless torus", RouterDesign::FlitBless, true},
  };
  return v;
}

const Registration reg(Experiment{
    .name = "ablation_topology",
    .title = "Ablation: mesh vs torus (extension)",
    .paper_shape =
        "wrap links double the bisection bandwidth and cut avg hops "
        "~25%; both designs gain throughput, DXbar keeps its lead",
    .axes =
        [](const RunContext& ctx) {
          const Axis designs = make_axis(
              "design", variants(),
              [](const Variant& v) { return std::string(v.label); },
              [](SimConfig& c, const Variant& v) {
                c.design = v.design;
                c.torus = v.torus;
              });
          return Grid{ctx.base, {designs, load_axis()}};
        },
    .reduce =
        [](const RunContext&, const GridView& g) {
          ExperimentResult r;
          r.add_table(grid_table("Topology: accepted load, mesh vs torus (UR)",
                                 g, "offered", "design",
                                 &RunStats::accepted_load));
          r.add_table(grid_table("Topology: avg hops per flit", g, "offered",
                                 "design", &RunStats::avg_hops, "%10.2f"));
          return r;
        },
});

}  // namespace
}  // namespace dxbar::bench
