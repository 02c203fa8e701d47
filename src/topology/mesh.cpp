#include "topology/mesh.hpp"

#include <cassert>

namespace dxbar {

namespace {

AxisRing axis_ring(int k, bool wrap) {
  const int len = wrap ? k : 2 * k;
  return {len, len / 2};
}

}  // namespace

Mesh::Mesh(int width, int height, bool wrap)
    : width_(width),
      height_(height),
      wrap_(wrap),
      ring_x_(axis_ring(width, wrap)),
      ring_y_(axis_ring(height, wrap)) {
  assert(width >= 2 && height >= 2);
}

std::optional<NodeId> Mesh::neighbor(NodeId n, Direction dir) const {
  Coord c = coord(n);
  switch (dir) {
    case Direction::East: ++c.x; break;
    case Direction::West: --c.x; break;
    case Direction::North: ++c.y; break;
    case Direction::South: --c.y; break;
    case Direction::Local: return std::nullopt;
  }
  if (!contains(c)) {
    if (!wrap_) return std::nullopt;
    c.x = (c.x + width_) % width_;
    c.y = (c.y + height_) % height_;
  }
  return node(c);
}

std::vector<LinkId> Mesh::all_links() const {
  std::vector<LinkId> links;
  links.reserve(static_cast<std::size_t>(num_nodes()) * kNumLinkDirs);
  for (NodeId n = 0; n < static_cast<NodeId>(num_nodes()); ++n) {
    for (Direction d : kLinkDirs) {
      if (has_link(n, d)) links.push_back({n, d});
    }
  }
  return links;
}

double Mesh::average_distance() const {
  // For a W x H mesh the mean of |x1-x2| over uniform pairs is known in
  // closed form, but the direct sum is cheap and obviously correct.
  const int n = num_nodes();
  long long total = 0;
  for (NodeId a = 0; a < static_cast<NodeId>(n); ++a) {
    for (NodeId b = 0; b < static_cast<NodeId>(n); ++b) {
      if (a != b) total += distance(a, b);
    }
  }
  const long long pairs = static_cast<long long>(n) * (n - 1);
  return static_cast<double>(total) / static_cast<double>(pairs);
}

}  // namespace dxbar
