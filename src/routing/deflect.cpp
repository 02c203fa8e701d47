#include "routing/deflect.hpp"

#include <algorithm>

namespace dxbar {

bool is_productive(const Mesh& mesh, NodeId cur, NodeId dst, Direction dir) {
  const auto next = mesh.neighbor(cur, dir);
  if (!next) return false;
  return mesh.distance(*next, dst) < mesh.distance(cur, dst);
}

std::array<Direction, kNumLinkDirs> deflection_ranking(const Mesh& mesh,
                                                       NodeId cur, NodeId dst,
                                                       std::uint64_t salt) {
  // Wrap-aware signed offsets: on a torus the shorter way around wins.
  const int dx = mesh.offset_x(cur, dst);
  const int dy = mesh.offset_y(cur, dst);
  const Coord here = mesh.coord(cur);

  // Score each direction: progress made (+2 per productive hop with the
  // larger remaining offset slightly preferred), link existence required.
  struct Ranked {
    Direction dir;
    int score;
  };
  std::array<Ranked, kNumLinkDirs> ranked{};
  int i = 0;
  for (Direction dir : kLinkDirs) {
    int score = 0;
    if (!mesh.has_link(here, dir)) {
      score = -1000;  // never pick a missing edge link
    } else {
      // Signed offset remaining along this direction's axis, positive when
      // the direction is productive.
      int progress = 0;
      switch (dir) {
        case Direction::East: progress = dx; break;
        case Direction::West: progress = -dx; break;
        case Direction::North: progress = dy; break;
        case Direction::South: progress = -dy; break;
        case Direction::Local: break;
      }
      if (progress > 0) {
        score = 100 + progress;  // productive: larger offsets first
      } else if (progress < 0) {
        score = -10;  // anti-productive: last resort
      }
      // Deterministic tie-break so deflections spread over directions.
      score = score * 4 + static_cast<int>((salt >> (port_index(dir) * 2)) & 3);
    }
    ranked[i++] = {dir, score};
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const Ranked& a, const Ranked& b) { return a.score > b.score; });

  std::array<Direction, kNumLinkDirs> out{};
  for (int k = 0; k < kNumLinkDirs; ++k) out[k] = ranked[k].dir;
  return out;
}

}  // namespace dxbar
