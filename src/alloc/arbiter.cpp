#include "alloc/arbiter.hpp"

namespace dxbar {

int pick_oldest(std::span<const Flit* const> candidates) noexcept {
  int best = -1;
  for (int i = 0; i < static_cast<int>(candidates.size()); ++i) {
    const Flit* f = candidates[i];
    if (f == nullptr) continue;
    if (best < 0 || f->older_than(*candidates[best])) best = i;
  }
  return best;
}

}  // namespace dxbar
