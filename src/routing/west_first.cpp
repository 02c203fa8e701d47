#include "routing/west_first.hpp"

namespace dxbar {

RouteSet wf_routes(const Mesh& mesh, NodeId cur, NodeId dst) {
  RouteSet out;
  const Coord c = mesh.coord(cur);
  const Coord d = mesh.coord(dst);

  if (c == d) {
    out.push_back(Direction::Local);
    return out;
  }

  if (c.x > d.x) {
    // All westward hops must be completed before anything else.
    out.push_back(Direction::West);
    return out;
  }

  // Destination is east of or aligned with us: adapt among minimal ports.
  if (c.x < d.x) out.push_back(Direction::East);
  if (c.y < d.y) out.push_back(Direction::North);
  if (c.y > d.y) out.push_back(Direction::South);
  return out;
}

bool wf_turn_legal(Direction in_dir, Direction out) {
  // `in_dir` is the direction of travel on the previous hop
  // (i.e. the upstream router's output port).  The two forbidden turns
  // of the west-first model are North->West and South->West.
  if (out != Direction::West) return true;
  return in_dir != Direction::North && in_dir != Direction::South;
}

}  // namespace dxbar
