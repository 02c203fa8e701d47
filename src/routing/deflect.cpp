#include "routing/deflect.hpp"

#include <utility>

namespace dxbar {

std::array<Direction, kNumLinkDirs> deflection_ranking(const Mesh& mesh,
                                                       Coord here, Coord dst,
                                                       std::uint64_t salt) {
  // Wrap-aware signed offsets: on a torus the shorter way around wins.
  const int dx = mesh.offset_x(here, dst);
  const int dy = mesh.offset_y(here, dst);

  // Score each direction: progress made (+2 per productive hop with the
  // larger remaining offset slightly preferred), link existence required.
  // Each key packs (score, 3 - port) so that all four keys are distinct
  // and ordering them descending reproduces a stable sort by score: ties
  // keep kLinkDirs order, as the insertion sort std::sort runs on four
  // entries did.  The port rides in the low two bits.
  std::array<int, kNumLinkDirs> key{};
  for (Direction dir : kLinkDirs) {
    const int p = port_index(dir);
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
      score = score * 4 + static_cast<int>((salt >> (p * 2)) & 3);
    }
    key[static_cast<std::size_t>(p)] = score * 16 + (3 - p) * 4 + p;
  }
  // Optimal 4-input sorting network (5 compare-exchanges), descending.
  const auto cx = [&key](std::size_t a, std::size_t b) {
    if (key[a] < key[b]) std::swap(key[a], key[b]);
  };
  cx(0, 1);
  cx(2, 3);
  cx(0, 2);
  cx(1, 3);
  cx(1, 2);

  std::array<Direction, kNumLinkDirs> out{};
  for (std::size_t k = 0; k < out.size(); ++k) {
    out[k] = kLinkDirs[static_cast<std::size_t>(key[k] & 3)];
  }
  return out;
}

}  // namespace dxbar
