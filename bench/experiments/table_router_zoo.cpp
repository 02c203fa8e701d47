// Router-zoo shootout at an equal buffer budget — DXbar vs DAMQ vs
// minBD vs Unified with the total flit storage per node pinned to
// kBudgetSlots, so every column difference is microarchitecture, not
// capacity.  The per-design buffer_depth is *solved* from
// buffer_slots_per_node() rather than hard-coded: the input-queued
// designs land on depth 4 (4 ports x 4 slots) while minBD, whose only
// storage is the side buffer, gets the whole budget as one 16-slot
// FIFO.
//
// Four metrics per design:
//   thr@hi     open-loop accepted load at a past-saturation offered
//              load — saturation throughput
//   pJ/flit    open-loop dynamic energy per delivered flit at a light
//              common load (every design well under saturation, so the
//              delivered traffic is identical and the energy comparison
//              is apples-to-apples)
//   p99 req    closed-loop p99 request latency (cycles) under the
//              coherence-shaped mix (read_fraction < 1 exercises
//              writeback traffic in the shootout)
//   area/leak  derived router area (mm^2) and its leakage power (mW)
//              at the configured tech node — static model outputs,
//              identical across replicas
//
// Pure axes + reduce, so it composes with --resume and --seeds; the p99
// column reads a pooled quantile metric, so under --seeds N it is the
// p99 of the replicas' pooled request-latency histograms (cell-wise
// means of per-replica p99s are not the pooled p99), like
// closedloop_saturation.
#include <string>

#include "exp_common.hpp"
#include "power/energy_model.hpp"
#include "router/factory.hpp"

namespace dxbar::bench {
namespace {

/// Total flit slots per node every contender must provision.
constexpr int kBudgetSlots = 16;
/// Past every contender's saturation knee at the default 8x8 mesh.
constexpr double kHighLoad = 0.40;
/// Light enough that all four designs deliver (essentially) all
/// offered traffic, making pJ/flit directly comparable.
constexpr double kLightLoad = 0.10;
/// Coherence mix for the closed-loop leg (satellite knob in the zoo).
constexpr double kReadFraction = 0.8;

const std::vector<RouterDesign>& zoo_designs() {
  static const std::vector<RouterDesign> v = {
      RouterDesign::DXbar,
      RouterDesign::Damq,
      RouterDesign::MinBD,
      RouterDesign::UnifiedXbar,
  };
  return v;
}

/// Smallest buffer_depth whose per-node storage meets the budget
/// exactly; aborts the experiment if a design cannot hit it (would mean
/// the budget is not divisible by the design's bank structure).
int depth_for_budget(RouterDesign d) {
  for (int depth = 1; depth <= kBudgetSlots; ++depth) {
    if (buffer_slots_per_node(d, depth) == kBudgetSlots) return depth;
  }
  std::fprintf(stderr,
               "table_router_zoo: %s cannot provision %d slots/node\n",
               std::string(to_string(d)).c_str(), kBudgetSlots);
  std::exit(1);
}

Grid zoo_grid(const RunContext& ctx) {
  const Axis designs = make_axis(
      "design", zoo_designs(),
      [](RouterDesign d) { return std::string(to_string(d)); },
      [](SimConfig& c, RouterDesign d) {
        c.design = d;
        c.routing = RoutingAlgo::DOR;
        c.buffer_depth = depth_for_budget(d);
      });
  // One leg per measured column, named after it.
  const Axis legs{"leg",
                  {{"thr@hi", [](SimConfig& c) { c.offered_load = kHighLoad; }},
                   {"pJ/flit",
                    [](SimConfig& c) { c.offered_load = kLightLoad; }},
                   {"p99_req", [](SimConfig& c) {
                      c.workload = WorkloadKind::ClosedLoop;
                      c.read_fraction = kReadFraction;
                    }}}};
  return Grid{ctx.base, {designs, legs}};
}

ExperimentResult reduce_zoo(const RunContext& ctx, const GridView& g) {
  const auto leg = [&](const char* name) {
    return g.fix("leg", g.axis("leg").position(name));
  };
  Table t;
  t.title = "Router zoo at equal buffer budget (16 flit-slots per node)";
  t.x_label = "design";
  t.x = g.axis("design").labels();
  add_series(t, "thr@hi", leg("thr@hi"), &RunStats::accepted_load);
  add_series(t, "pJ/flit", leg("pJ/flit"), [](const RunStats& st) {
    return st.energy_per_flit_nj() * 1000.0;
  });
  add_series(t, "p99_req", leg("p99_req"), req_quantile(0.99));
  // Static model outputs, identical across replicas.
  std::vector<double> area, leak;
  for (RouterDesign d : zoo_designs()) {
    SimConfig c = ctx.base;
    c.design = d;
    c.buffer_depth = depth_for_budget(d);
    area.push_back(router_area_mm2(d, derive_area_params(c)));
    leak.push_back(router_leakage_mw(c));
  }
  t.series_labels.insert(t.series_labels.end(), {"area_mm2", "leak_mW"});
  t.values.push_back(std::move(area));
  t.values.push_back(std::move(leak));

  ExperimentResult r;
  r.add_table(std::move(t));
  r.addf(
      "\nEqual budget: every design provisions %d flit-slots per node\n"
      "(input-queued designs at buffer_depth %d, minBD's whole budget is\n"
      "its side buffer at buffer_depth %d — solved from\n"
      "buffer_slots_per_node, not hard-coded).\n"
      "thr@hi    = accepted load at offered %.2f (saturation throughput)\n"
      "pJ/flit   = dynamic energy per delivered flit at offered %.2f\n"
      "p99_req   = closed-loop p99 request latency (cycles), mlp %d,\n"
      "            coherence mix read_fraction %.2f\n"
      "area/leak = derived router area and leakage power at %d nm\n",
      kBudgetSlots, depth_for_budget(RouterDesign::DXbar),
      depth_for_budget(RouterDesign::MinBD), kHighLoad, kLightLoad,
      ctx.base.mlp, kReadFraction, ctx.base.tech_node);
  return r;
}

const Registration reg(Experiment{
    .name = "table_router_zoo",
    .title =
        "Router zoo: DXbar vs DAMQ vs minBD vs Unified at equal buffer "
        "budget",
    .paper_shape =
        "at 16 slots/node the buffered-crossbar designs (DXbar, Unified) "
        "lead saturation throughput; DAMQ trades throughput for the "
        "smallest buffered-router area; minBD keeps most of the "
        "throughput but pays deflection energy even at light load and "
        "the worst closed-loop p99 tail",
    .axes = zoo_grid,
    .reduce = reduce_zoo,
});

}  // namespace
}  // namespace dxbar::bench
