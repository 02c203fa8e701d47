// Reusable arbiter primitives.
//
// Routers in this library arbitrate on either rotating priority
// (round-robin, the generic-router default) or packet age (the bufferless
// designs and DXbar, where the oldest flit must win to bound deflections).
#pragma once

#include <array>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>

#include "common/flit.hpp"

namespace dxbar {

/// Round-robin arbiter over up to 32 requesters.  `grant` returns the
/// winning index (or -1 when no requests) and rotates priority past it.
/// The pick is a bit-scan: the lowest request at or after the priority
/// pointer, else the lowest request overall.
class RoundRobinArbiter {
 public:
  explicit RoundRobinArbiter(int num_inputs) : n_(num_inputs) {
    assert(num_inputs >= 1 && num_inputs <= 32);
  }

  /// `requests` bit i set means input i requests the resource; bits at
  /// or above `num_inputs()` are ignored.  Inline: the router kernels
  /// call it several times per router per cycle.
  [[nodiscard]] int pick(std::uint32_t requests) const noexcept {
    // Bits at or above n_ name no requester; drop them before the scan.
    requests &= ~0u >> (32 - n_);
    if (requests == 0) return -1;
    // Lowest request at or after the priority pointer, else wrap around
    // to the lowest request overall.
    const std::uint32_t ahead = requests & (~0u << next_);
    return std::countr_zero(ahead != 0 ? ahead : requests);
  }

  /// Picks and advances the priority pointer past the winner.
  int grant(std::uint32_t requests) noexcept {
    const int winner = pick(requests);
    if (winner >= 0) next_ = winner + 1 == n_ ? 0 : winner + 1;
    return winner;
  }

  [[nodiscard]] int num_inputs() const noexcept { return n_; }
  [[nodiscard]] int priority_pointer() const noexcept { return next_; }

  // Snapshot protocol: the rotating priority pointer is the only state.
  template <class Self, class Ar>
  static void fields(Self& self, Ar& ar) {
    ar(self.next_);
  }

 private:
  int n_;
  int next_ = 0;
};

/// `N` arbiters over `num_inputs` requesters each, held by value.
template <std::size_t N>
std::array<RoundRobinArbiter, N> make_arbiter_bank(int num_inputs) {
  return [num_inputs]<std::size_t... I>(std::index_sequence<I...>) {
    return std::array<RoundRobinArbiter, N>{
        {((void)I, RoundRobinArbiter(num_inputs))...}};
  }(std::make_index_sequence<N>{});
}

/// Index of the oldest flit among the non-null entries (age-based
/// priority with the deterministic tie-break from Flit::older_than);
/// -1 when all entries are null.
int pick_oldest(std::span<const Flit* const> candidates) noexcept;

}  // namespace dxbar
