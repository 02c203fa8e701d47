// Table III — area and buffer-energy estimation per router design,
// derived from the parametric technology model (power/tech_params.hpp).
// At the paper's operating point (65 nm, 1.0 V, 1 GHz, 128-bit flits)
// the derived numbers reproduce Table III; other tech_node / flit_bits
// overrides re-derive the whole table.
#include "exp_common.hpp"
#include "power/energy_model.hpp"
#include "power/tech_params.hpp"

namespace dxbar::bench {
namespace {

const Registration reg(Experiment{
    .name = "table3",
    .title = "Table III: area and energy estimation (parametric model)",
    .paper_shape =
        "DXbar = 1.33x Flit-Bless area, Unified = 1.25x, Buffered4 < "
        "DXbar < Buffered8, bufferless designs consume zero buffer "
        "energy; crossbar 13 pJ/flit (15 pJ unified), link 36 pJ/flit "
        "at 65 nm / 1.0 V / 1 GHz / 128-bit flits",
    .run =
        [](const RunContext& ctx) {
          const TechParams tech = TechParams::node(ctx.base.tech_node);
          ExperimentResult r;
          r.addf(
              "Table III: area and energy estimation (%d nm, %.1f V, "
              "%.1f GHz, %d-bit flits)\n"
              "-------------------------------------------------------------"
              "\n",
              tech.node_nm, tech.vdd, tech.freq_ghz, ctx.base.flit_bits);
          r.addf("%-14s %12s %18s %16s\n", "Design", "Area (mm^2)",
                 "Buffer E (pJ/flit)", "Xbar E (pJ/flit)");

          const RouterDesign designs[] = {
              RouterDesign::FlitBless,  RouterDesign::Scarab,
              RouterDesign::Buffered4,  RouterDesign::Buffered8,
              RouterDesign::DXbar,      RouterDesign::UnifiedXbar,
              RouterDesign::BufferedVC, RouterDesign::Afc};
          for (RouterDesign d : designs) {
            SimConfig c = ctx.base;
            c.design = d;
            const EnergyParams e = derive_energy_params(c);
            const AreaParams a = derive_area_params(c);
            const double buf_e = e.buffer_write_pj + e.buffer_read_pj;
            r.addf("%-14s %12.4f %18.2f %16.1f\n",
                   std::string(to_string(d)).c_str(), router_area_mm2(d, a),
                   buf_e, e.crossbar_pj);
          }

          const EnergyParams e = derive_energy_params(ctx.base);
          const AreaParams a = derive_area_params(ctx.base);
          const TimingParams t;
          r.addf("\n");
          r.addf("%dx%d crossbar area        %.4f mm^2\n", kNumPorts,
                 kNumPorts, a.crossbar_mm2);
          r.addf("unified crossbar area    %.4f mm^2 (transmission "
                 "gates)\n",
                 a.unified_crossbar_mm2);
          r.addf("%dx %d-flit buffer bank    %.4f mm^2\n", kNumLinkDirs,
                 ctx.base.buffer_depth, a.buffer_bank_mm2);
          r.addf("4 input links            %.4f mm^2\n", a.links_mm2);
          r.addf("link energy              %.1f pJ per %d-bit flit "
                 "traversal\n",
                 e.link_pj, ctx.base.flit_bits);
          r.addf("critical path (LT)       %.2f ns\n", t.link_traversal_ns);
          r.addf("unified ST worst case    %.2f ns (5 transmission "
                 "gates)\n",
                 t.unified_switch_ns);

          const auto area_of = [&](RouterDesign d) {
            SimConfig c = ctx.base;
            c.design = d;
            return router_area_mm2(d, derive_area_params(c));
          };
          const double bless = area_of(RouterDesign::FlitBless);
          r.addf(
              "\n"
              "area overhead vs Flit-Bless: DXbar %.0f%%, Unified "
              "%.0f%%\n",
              100.0 * (area_of(RouterDesign::DXbar) / bless - 1.0),
              100.0 * (area_of(RouterDesign::UnifiedXbar) / bless - 1.0));
          r.addf(
              "(every value above is derived from wire/gate capacitances\n"
              " and cell areas at the configured tech node — see DESIGN.md\n"
              " section 13; the paper's table is garbled in the available\n"
              " text, but every stated relation is preserved at the 65 nm\n"
              " operating point; Buffered VC and AFC are this library's\n"
              " extension baselines, not part of the paper's table)\n");
          return r;
        },
});

}  // namespace
}  // namespace dxbar::bench
