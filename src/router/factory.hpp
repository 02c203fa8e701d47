// Router construction and stepping by design enum.
#pragma once

#include <memory>
#include <vector>

#include "router/router.hpp"

namespace dxbar {

/// Builds the router microarchitecture selected by env.cfg->design.
std::unique_ptr<Router> make_router(NodeId id, const RouterEnv& env);

/// Steps routers [begin, end) of one network.  All routers of a network
/// share its design, so the stepper of that design calls the concrete
/// step() directly instead of once per router through the vtable.
using RouterStepper = void (*)(
    const std::vector<std::unique_ptr<Router>>& routers, NodeId begin,
    NodeId end, Cycle now);

/// The stepper for routers built by make_router for `design`.
RouterStepper router_stepper(RouterDesign design);

/// Credits (== downstream buffer slots per input) the channels feeding a
/// router of this design must carry; kUnlimitedCredits for designs that
/// never exert backpressure (design_row(design).credits).
int link_credits_for(RouterDesign design, int buffer_depth);

/// The channel of one link feeding a router of cfg.design: its credits
/// (link_credits_for) in one pool, or split evenly into cfg.num_vcs pools
/// where the design's row says pool_per_vc.
Channel make_link_channel(const SimConfig& cfg);

/// Total flit storage one router of this design provisions, in slots —
/// the quantity held constant across designs by the equal-buffer-budget
/// shootout (bench/experiments/table_router_zoo.cpp).
int buffer_slots_per_node(RouterDesign design, int buffer_depth);

}  // namespace dxbar
