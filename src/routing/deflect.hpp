// Deflection-routing port preference for bufferless designs.
//
// Flit-Bless assigns *every* incoming flit to some output port each
// cycle: productive ports first, then the least-harmful non-productive
// ports.  The ranking below orders all four link directions so that the
// age-ordered assignment loop can walk it and take the first free port.
#pragma once

#include <array>

#include "common/types.hpp"
#include "topology/mesh.hpp"

namespace dxbar {

/// All four link directions ranked for a flit at `here` heading to `dst`:
/// productive dimensions first (larger remaining offset preferred), then
/// non-productive ones (the reverse of a productive port last).  `salt`
/// deterministically breaks ties between equally attractive ports so
/// deflections do not always pick the same victim direction.  Both ends
/// come as coordinates, so the ranking takes no division.
std::array<Direction, kNumLinkDirs> deflection_ranking(const Mesh& mesh,
                                                       Coord here, Coord dst,
                                                       std::uint64_t salt);

}  // namespace dxbar
