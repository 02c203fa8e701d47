// Additional minimal-adaptive turn models (Glass & Ni): negative-first
// and north-last.  Extensions beyond the paper's DOR/West-First pair —
// they slot into the same RouteSet interface, so every router design can
// run them, and `bench/ablation_routing` compares all four on the
// adversarial patterns.
//
// Negative-first: all hops in the negative directions (West, South) are
// taken before any positive hop; forbidden turns are positive->negative.
// North-last: a packet may only head North once nothing else remains;
// forbidden turns are North->anything-else.
#pragma once

#include "routing/route.hpp"
#include "topology/mesh.hpp"

namespace dxbar {

/// Legal minimal ports under negative-first, preference-ordered.
RouteSet nf_routes(const Mesh& mesh, NodeId cur, NodeId dst);

/// True when turning from travel direction `in_dir` into `out` is
/// legal under negative-first.
bool nf_turn_legal(Direction in_dir, Direction out);

/// Legal minimal ports under north-last, preference-ordered.
RouteSet nl_routes(const Mesh& mesh, NodeId cur, NodeId dst);

/// True when the turn is legal under north-last.
bool nl_turn_legal(Direction in_dir, Direction out);

}  // namespace dxbar
