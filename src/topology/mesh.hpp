// k-ary 2-mesh topology: node/coordinate mapping, neighbour lookup and
// link enumeration.  Pure geometry — no simulation state lives here.
#pragma once

#include <optional>
#include <vector>

#include "common/types.hpp"
#include "topology/coord.hpp"

namespace dxbar {

/// A directed link endpoint: the output `dir` of router `node`.
struct LinkId {
  NodeId node = kInvalidNode;
  Direction dir = Direction::Local;

  friend constexpr bool operator==(const LinkId&, const LinkId&) = default;
};

/// One mesh axis seen as a ring of `len` positions, for offsets taken
/// without a division.  A torus axis of k routers is a ring of k; a mesh
/// axis is a ring of 2k, whose shorter way never wraps, so a plain delta
/// keeps its sign and size.
struct AxisRing {
  int len = 0;
  int half = 0;  ///< len / 2

  /// Where `to` sits on the ring seen from `from`, in [0, len), for a
  /// delta = to - from of two coordinates on this axis (|delta| < k).
  [[nodiscard]] int position(int delta) const noexcept {
    return delta + (len & (delta >> 31));  // add len iff delta < 0
  }

  /// Shortest signed offset; an exact half ring (torus only) goes
  /// positive.
  [[nodiscard]] int offset(int delta) const noexcept {
    const int d = position(delta);
    return d > half ? d - len : d;
  }
};

class Mesh {
 public:
  /// `wrap` turns the mesh into a torus: edge links wrap around and
  /// distances take the shorter way per dimension.
  Mesh(int width, int height, bool wrap = false);

  [[nodiscard]] int width() const noexcept { return width_; }
  [[nodiscard]] int height() const noexcept { return height_; }
  [[nodiscard]] int num_nodes() const noexcept { return width_ * height_; }
  [[nodiscard]] bool wraps() const noexcept { return wrap_; }

  /// Signed x-offset of the shortest route from `from` to `to`
  /// (positive = east); on a torus ties break eastward.
  [[nodiscard]] int offset_x(NodeId from, NodeId to) const noexcept {
    return offset_x(coord(from), coord(to));
  }

  /// Signed y-offset of the shortest route (positive = north).
  [[nodiscard]] int offset_y(NodeId from, NodeId to) const noexcept {
    return offset_y(coord(from), coord(to));
  }

  /// offset_x / offset_y for routers already located: no division.
  [[nodiscard]] int offset_x(Coord from, Coord to) const noexcept {
    return ring_x_.offset(to.x - from.x);
  }
  [[nodiscard]] int offset_y(Coord from, Coord to) const noexcept {
    return ring_y_.offset(to.y - from.y);
  }

  /// The axes as rings (see AxisRing).
  [[nodiscard]] AxisRing ring_x() const noexcept { return ring_x_; }
  [[nodiscard]] AxisRing ring_y() const noexcept { return ring_y_; }

  [[nodiscard]] Coord coord(NodeId n) const noexcept {
    return {static_cast<int>(n) % width_, static_cast<int>(n) / width_};
  }

  [[nodiscard]] NodeId node(Coord c) const noexcept {
    return static_cast<NodeId>(c.y * width_ + c.x);
  }

  [[nodiscard]] NodeId node(int x, int y) const noexcept {
    return node(Coord{x, y});
  }

  [[nodiscard]] bool contains(Coord c) const noexcept {
    return c.x >= 0 && c.x < width_ && c.y >= 0 && c.y < height_;
  }

  /// The neighbour reached over output `dir`, or nullopt at a mesh edge.
  [[nodiscard]] std::optional<NodeId> neighbor(NodeId n, Direction dir) const;

  /// True when router `n` has a link in direction `dir`: every link
  /// direction on a torus, on a mesh each one that stays inside the edge;
  /// never Local.
  [[nodiscard]] bool has_link(NodeId n, Direction dir) const noexcept {
    return has_link(coord(n), dir);
  }

  /// has_link for a router already located at `c`.
  [[nodiscard]] bool has_link(Coord c, Direction dir) const noexcept {
    switch (dir) {
      case Direction::East: return wrap_ || c.x + 1 < width_;
      case Direction::West: return wrap_ || c.x > 0;
      case Direction::North: return wrap_ || c.y + 1 < height_;
      case Direction::South: return wrap_ || c.y > 0;
      case Direction::Local: break;
    }
    return false;
  }

  /// Hop distance under minimal routing (wrap-aware on a torus).
  [[nodiscard]] int distance(NodeId a, NodeId b) const noexcept {
    if (!wrap_) return manhattan(coord(a), coord(b));
    return std::abs(offset_x(a, b)) + std::abs(offset_y(a, b));
  }

  /// Every directed link in the mesh, deterministic order.
  [[nodiscard]] std::vector<LinkId> all_links() const;

  /// Average minimal hop count over all (src != dst) pairs — used for the
  /// uniform-random capacity normalisation.
  [[nodiscard]] double average_distance() const;

 private:
  int width_;
  int height_;
  bool wrap_;
  AxisRing ring_x_;
  AxisRing ring_y_;
};

}  // namespace dxbar
