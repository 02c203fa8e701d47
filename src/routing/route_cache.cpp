#include "routing/route_cache.hpp"

#include <algorithm>

namespace dxbar {

namespace {

/// Sign class of one axis offset, branch-free: 0 aligned, 1 positive,
/// 2 negative.  An exact half ring on a torus counts as positive, as in
/// Mesh::offset_x.
int axis_class(int delta, AxisRing ring) {
  const int d = ring.position(delta);
  return static_cast<int>(d > 0) + static_cast<int>(d > ring.half);
}

/// axis_class of every offset in (-k, k) along one axis of `k` routers,
/// indexed by offset + k - 1.
std::vector<std::uint8_t> axis_classes(int k, AxisRing ring) {
  std::vector<std::uint8_t> out;
  out.reserve(static_cast<std::size_t>(2 * k - 1));
  for (int d = 1 - k; d < k; ++d) {
    out.push_back(static_cast<std::uint8_t>(axis_class(d, ring)));
  }
  return out;
}

}  // namespace

RouteCache::RouteCache(RoutingAlgo algo, const Mesh& mesh) {
  const int w = mesh.width();
  const int h = mesh.height();
  // Relative offsets span dx in (-w, w) and dy in (-h, h); a key stride
  // of 2w - 1 gives each of them its own key difference.
  const int stride = 2 * w - 1;
  keys_.reserve(static_cast<std::size_t>(mesh.num_nodes()));
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) keys_.push_back(y * stride + x);
  }
  origin_ = (h - 1) * stride + (w - 1);
  quadrant_.resize(static_cast<std::size_t>((2 * h - 1) * stride));

  const std::vector<std::uint8_t> x_class = axis_classes(w, mesh.ring_x());
  const std::vector<std::uint8_t> y_class = axis_classes(h, mesh.ring_y());
  std::array<bool, 9> filled{};
  for (int dy = 1 - h; dy < h; ++dy) {
    for (int dx = 1 - w; dx < w; ++dx) {
      const std::uint8_t q = static_cast<std::uint8_t>(
          3 * x_class[static_cast<std::size_t>(dx + w - 1)] +
          y_class[static_cast<std::size_t>(dy + h - 1)]);
      quadrant_[static_cast<std::size_t>(origin_ + dy * stride + dx)] = q;
      if (filled[q]) continue;
      filled[q] = true;
      // First offset seen in this quadrant: route one pair that has it.
      const NodeId cur = mesh.node(std::max(0, -dx), std::max(0, -dy));
      const NodeId dst = mesh.node(std::max(0, dx), std::max(0, dy));
      algo_[q] = compute_routes(algo, mesh, cur, dst);
      minimal_[q] = minimal_routes(mesh, cur, dst);
    }
  }
}

}  // namespace dxbar
