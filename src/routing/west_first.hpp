// West-first minimal adaptive routing (turn model).
//
// A packet travels all of its westward hops first; once it has turned
// out of the west direction it may never turn back west.  Equivalently:
// if the destination lies to the west, West is the only legal port;
// otherwise the packet may adaptively pick among its minimal ports in
// {East, North, South}.  The two forbidden turns (N->W and S->W) break
// every cycle in the channel dependence graph, so the algorithm is
// deadlock-free with simple FIFO buffering.
#pragma once

#include "routing/route.hpp"
#include "topology/mesh.hpp"

namespace dxbar {

/// The legal minimal output ports for a flit at `cur` heading to `dst`,
/// preference-ordered (x-dimension first, matching the paper's DOR bias).
/// Contains only Direction::Local when cur == dst.
RouteSet wf_routes(const Mesh& mesh, NodeId cur, NodeId dst);

/// True when turning from input `in_from` (the port the flit arrived on)
/// to output `out` is legal under the west-first turn model.  Used by
/// property tests; the route computation above never produces an illegal
/// turn by construction.
bool wf_turn_legal(Direction in_dir, Direction out);

}  // namespace dxbar
