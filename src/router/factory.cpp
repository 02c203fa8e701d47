#include "router/factory.hpp"

#include "router/afc_router.hpp"
#include "router/bless_router.hpp"
#include "router/buffered_router.hpp"
#include "router/damq_router.hpp"
#include "router/dxbar_router.hpp"
#include "router/minbd_router.hpp"
#include "router/scarab_router.hpp"
#include "router/unified_router.hpp"
#include "router/vc_router.hpp"
#include "topology/channel.hpp"

namespace dxbar {
namespace {

template <class ConcreteRouter, auto... args>
std::unique_ptr<Router> build(NodeId id, const RouterEnv& env) {
  return std::make_unique<ConcreteRouter>(id, env, args...);
}

template <class ConcreteRouter>
void step_range(const std::vector<std::unique_ptr<Router>>& routers,
                NodeId begin, NodeId end, Cycle now) {
  for (NodeId i = begin; i < end; ++i) {
    static_cast<ConcreteRouter*>(routers[i].get())->step(now);
  }
}

/// A design's router: its constructor and its concrete stepper.
struct FactoryRow {
  RouterDesign design;
  std::unique_ptr<Router> (*make)(NodeId, const RouterEnv&);
  RouterStepper step;
};

/// `args` follow (id, env) in the router's constructor.
template <class ConcreteRouter, auto... args>
constexpr FactoryRow row(RouterDesign design) {
  return {design, &build<ConcreteRouter, args...>,
          &step_range<ConcreteRouter>};
}

using D = RouterDesign;
constexpr std::array<FactoryRow, kNumDesigns> kFactory = {{
    row<BlessRouter>(D::FlitBless),
    row<ScarabRouter>(D::Scarab),
    row<BufferedRouter, /*lanes_per_input=*/1>(D::Buffered4),
    row<BufferedRouter, /*lanes_per_input=*/2>(D::Buffered8),
    row<DXbarRouter>(D::DXbar),
    row<UnifiedRouter>(D::UnifiedXbar),
    row<VcRouter>(D::BufferedVC),
    row<AfcRouter>(D::Afc),
    row<DamqRouter>(D::Damq),
    row<MinBDRouter>(D::MinBD),
}};
static_assert(one_row_per_design(kFactory));

}  // namespace

std::unique_ptr<Router> make_router(NodeId id, const RouterEnv& env) {
  return kFactory[static_cast<std::size_t>(env.cfg->design)].make(id, env);
}

RouterStepper router_stepper(RouterDesign design) {
  return kFactory[static_cast<std::size_t>(design)].step;
}

int link_credits_for(RouterDesign design, int buffer_depth) {
  const DesignRow& row = design_row(design);
  switch (row.credits) {
    case LinkCredits::Unlimited: return kUnlimitedCredits;
    case LinkCredits::PerDepth:
      return row.slots_per_depth / kNumLinkDirs * buffer_depth;
    case LinkCredits::Granted: return 0;
  }
  return kUnlimitedCredits;
}

Channel make_link_channel(const SimConfig& cfg) {
  const int credits = link_credits_for(cfg.design, cfg.buffer_depth);
  if (design_row(cfg.design).pool_per_vc) {
    return Channel(cfg.num_vcs, credits / cfg.num_vcs);
  }
  return Channel(credits);
}

int buffer_slots_per_node(RouterDesign design, int buffer_depth) {
  return design_row(design).slots_per_depth * buffer_depth;
}

}  // namespace dxbar
