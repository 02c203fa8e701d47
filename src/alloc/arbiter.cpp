#include "alloc/arbiter.hpp"

#include <bit>

namespace dxbar {

int RoundRobinArbiter::pick(std::uint32_t requests) const noexcept {
  // Bits at or above n_ name no requester; drop them before the scan.
  requests &= ~0u >> (32 - n_);
  if (requests == 0) return -1;
  // Lowest request at or after the priority pointer, else wrap around to
  // the lowest request overall.
  const std::uint32_t ahead = requests & (~0u << next_);
  return std::countr_zero(ahead != 0 ? ahead : requests);
}

int RoundRobinArbiter::grant(std::uint32_t requests) noexcept {
  const int winner = pick(requests);
  if (winner >= 0) next_ = winner + 1 == n_ ? 0 : winner + 1;
  return winner;
}

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
