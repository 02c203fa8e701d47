#include "routing/turn_models.hpp"

namespace dxbar {

RouteSet nf_routes(const Mesh& mesh, NodeId cur, NodeId dst) {
  RouteSet out;
  const Coord c = mesh.coord(cur);
  const Coord d = mesh.coord(dst);
  if (c == d) {
    out.push_back(Direction::Local);
    return out;
  }
  // Negative hops (West, South) first, adaptively when both remain.
  if (c.x > d.x) out.push_back(Direction::West);
  if (c.y > d.y) out.push_back(Direction::South);
  if (!out.empty()) return out;
  // Only positive hops remain; adapt among them.
  if (c.x < d.x) out.push_back(Direction::East);
  if (c.y < d.y) out.push_back(Direction::North);
  return out;
}

bool nf_turn_legal(Direction in_dir, Direction out) {
  // Forbidden: entering a negative direction after travelling a
  // positive one.
  const bool from_positive =
      in_dir == Direction::East || in_dir == Direction::North;
  const bool to_negative =
      out == Direction::West || out == Direction::South;
  return !(from_positive && to_negative);
}

RouteSet nl_routes(const Mesh& mesh, NodeId cur, NodeId dst) {
  RouteSet out;
  const Coord c = mesh.coord(cur);
  const Coord d = mesh.coord(dst);
  if (c == d) {
    out.push_back(Direction::Local);
    return out;
  }
  // Everything except North first, adaptively.
  if (c.x < d.x) out.push_back(Direction::East);
  if (c.x > d.x) out.push_back(Direction::West);
  if (c.y > d.y) out.push_back(Direction::South);
  if (!out.empty()) return out;
  // North only once it is the sole remaining dimension.
  out.push_back(Direction::North);
  return out;
}

bool nl_turn_legal(Direction in_dir, Direction out) {
  // Forbidden: any turn out of North (North must be last).
  if (in_dir != Direction::North) return true;
  return out == Direction::North || out == Direction::Local;
}

}  // namespace dxbar
