// Quadrant routing tables for the healthy topology.
//
// On a healthy mesh or torus every routing function the simulator offers
// — DOR, the West-First / Negative-First / North-Last turn models and
// minimal adaptive routing — depends only on the destination's quadrant:
// the sign of the wrap-aware x offset and of the y offset, nine cases in
// all.  The cache evaluates compute_routes / minimal_routes once per
// quadrant that the topology can produce and keeps the results in two
// nine-entry tables.
//
// A lookup takes no division.  Every node has a position key,
// y * (2W - 1) + x, and two keys differ by dy * (2W - 1) + dx, which is
// distinct for each of the (2W - 1) * (2H - 1) relative offsets.  A
// byte table indexed by that difference holds each offset's quadrant,
// filled at construction by a branch-free sign classifier.
// A router caches its own key, so a lookup is one read of the
// destination's key, one byte read and one RouteSet read, all from
// tables of O(N) bytes.
//
// This replaced two N^2-entry tables of 16-byte RouteSets: 64 KiB each
// on the paper's 8x8 mesh, 16 MiB each on 32x32, and none at all above
// 1024 nodes, where every lookup recomputed the route from Mesh::coord
// divisions.  Degraded topologies (link faults) use the BFS RouteTable
// instead and never build this cache.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "routing/route.hpp"
#include "routing/routing_algorithm.hpp"
#include "topology/mesh.hpp"

namespace dxbar {

class RouteCache {
 public:
  RouteCache(RoutingAlgo algo, const Mesh& mesh);

  /// Position key of node `n` (see the file comment).
  [[nodiscard]] std::int32_t key(NodeId n) const { return keys_[n]; }

  /// Preference-ordered productive ports under the configured algorithm
  /// for a flit at the router with key `here` heading to `dst`.
  [[nodiscard]] const RouteSet& routes(std::int32_t here, NodeId dst) const {
    return algo_[quadrant(here, dst)];
  }

  /// Minimal-adaptive set (every distance-reducing port).
  [[nodiscard]] const RouteSet& minimal(std::int32_t here, NodeId dst) const {
    return minimal_[quadrant(here, dst)];
  }

  /// routes() from node `cur` rather than from a cached key.
  [[nodiscard]] const RouteSet& routes(NodeId cur, NodeId dst) const {
    return routes(key(cur), dst);
  }

 private:
  /// Table index of `dst` seen from key `here`: 3 * x class + y class.
  [[nodiscard]] std::size_t quadrant(std::int32_t here, NodeId dst) const {
    return quadrant_[static_cast<std::size_t>(origin_ + keys_[dst] - here)];
  }

  std::vector<std::int32_t> keys_;     ///< node id -> position key
  std::vector<std::uint8_t> quadrant_;  ///< relative offset -> quadrant
  std::int32_t origin_ = 0;             ///< quadrant_ index of offset (0, 0)
  std::array<RouteSet, 9> algo_;
  std::array<RouteSet, 9> minimal_;
};

}  // namespace dxbar
