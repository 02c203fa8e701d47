// Ablation — energy breakdown by component (buffer / crossbar / link /
// control) per design.  The paper's motivation opens with input buffers
// consuming ~40% of the conventional NoC power budget; this bench shows
// where each design actually spends, at a low and a high load.
#include "exp_common.hpp"

namespace dxbar::bench {
namespace {

const std::vector<double> kLoads = {0.15, 0.5};

const Registration reg(Experiment{
    .name = "ablation_energy_breakdown",
    .title = "Ablation: energy breakdown by component per design",
    .paper_shape =
        "buffered baselines spend ~40% on buffers at every hop; DXbar "
        "pays buffer energy only on conflicts; bufferless designs trade "
        "it for extra link/crossbar traversals under deflection",
    .axes =
        [](const RunContext& ctx) {
          return Grid{ctx.base,
                      {make_axis(
                           "load", kLoads,
                           [](double l) { return fmt(l, "%.2f"); },
                           [](SimConfig& c, double l) { c.offered_load = l; }),
                       figure_designs()}};
        },
    .reduce =
        [](const RunContext&, const GridView& g) {
          ExperimentResult r;
          const Axis& loads = g.axis("load");
          const Axis& designs = g.axis("design");
          for (std::size_t l = 0; l < loads.values.size(); ++l) {
            r.addf(
                "\nEnergy breakdown at offered load %s (%% of total, "
                "plus nJ/packet):\n",
                loads.values[l].label.c_str());
            r.addf("%-14s %8s %8s %8s %8s %12s\n", "design", "buffer",
                   "xbar", "link", "control", "total nJ/pkt");
            for (std::size_t d = 0; d < designs.values.size(); ++d) {
              const RunStats& st = g.at(l, d);
              const double total = st.total_energy_nj();
              r.addf("%-14s %7.1f%% %7.1f%% %7.1f%% %7.1f%% %12.3f\n",
                     designs.values[d].label.c_str(),
                     100.0 * st.energy_buffer_nj / total,
                     100.0 * st.energy_crossbar_nj / total,
                     100.0 * st.energy_link_nj / total,
                     100.0 * st.energy_control_nj / total,
                     st.energy_per_packet_nj());
            }
          }

          r.addf(
              "\nReading: the buffered baselines pay the buffer share on\n"
              "every hop; DXbar only on conflicts; the bufferless designs\n"
              "convert that saving into extra link/crossbar traversals "
              "once\n"
              "deflections or retransmissions kick in.\n");
          return r;
        },
});

}  // namespace
}  // namespace dxbar::bench
