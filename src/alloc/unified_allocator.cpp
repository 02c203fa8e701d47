#include "alloc/unified_allocator.hpp"

#include <bit>

namespace dxbar {
namespace {

/// Lower key == higher priority at the output arbiters.
struct PriorityKey {
  int klass;  ///< 0 = favoured flit class this cycle, 1 = other
  std::uint64_t age;

  [[nodiscard]] bool beats(const PriorityKey& o) const noexcept {
    if (klass != o.klass) return klass < o.klass;
    return age < o.age;
  }
};

PriorityKey key_of(const UnifiedCandidate& c, bool is_incoming,
                   bool incoming_priority) {
  const bool favoured = c.elevated || (is_incoming == incoming_priority);
  return {favoured ? 0 : 1, c.age};
}

}  // namespace

UnifiedGrants UnifiedAllocator::allocate(
    const std::array<UnifiedPortRequest, kNumPorts>& req,
    bool incoming_priority) const {
  UnifiedGrants result;

  // Each flit's request mask (empty when absent) and priority key, once
  // per port rather than once per (output, port) pair.
  std::array<std::uint32_t, kNumPorts> in_mask{};
  std::array<std::uint32_t, kNumPorts> buf_mask{};
  std::array<PriorityKey, kNumPorts> in_key{};
  std::array<PriorityKey, kNumPorts> buf_key{};
  for (int p = 0; p < kNumPorts; ++p) {
    const UnifiedPortRequest& r = req[static_cast<std::size_t>(p)];
    in_mask[p] = r.incoming.valid ? r.incoming.request_mask : 0;
    buf_mask[p] = r.buffered.valid ? r.buffered.request_mask : 0;
    in_key[p] = key_of(r.incoming, /*is_incoming=*/true, incoming_priority);
    buf_key[p] = key_of(r.buffered, /*is_incoming=*/false, incoming_priority);
  }

  // ---- Stage 1: per-output P:1 arbitration over input *ports* --------
  // Each port's request line for output o is the OR of its two flits'
  // requests; the arbiter grants the port whose best requesting flit has
  // the highest priority (age-ordered within priority class).  `won[p]`
  // collects the outputs port p wins.
  std::array<std::uint32_t, kNumPorts> won{};
  for (int o = 0; o < kNumPorts; ++o) {
    const std::uint32_t bit = 1u << o;
    int best_port = -1;
    PriorityKey best_key{};
    for (int p = 0; p < kNumPorts; ++p) {
      const bool in_req = (in_mask[p] & bit) != 0;
      const bool buf_req = (buf_mask[p] & bit) != 0;
      if (!in_req && !buf_req) continue;
      PriorityKey port_key = in_req ? in_key[p] : buf_key[p];
      if (in_req && buf_req && buf_key[p].beats(port_key)) {
        port_key = buf_key[p];
      }
      if (best_port < 0 || port_key.beats(best_key)) {
        best_port = p;
        best_key = port_key;
      }
    }
    if (best_port >= 0) won[best_port] |= bit;
  }

  // ---- Stage 2: per-port serial V:1 binding + conflict-free swap -----
  for (int p = 0; p < kNumPorts; ++p) {
    if (won[p] == 0) continue;

    // The hardware binds the first won output via the first V:1 arbiter
    // and (serially) a second won output to the *other* flit.  We take
    // the first two won outputs, evaluate both flit<->output pairings,
    // and keep the better one — the swapped pairing models the
    // conflict-detection multiplexers firing.
    const std::uint32_t rest = won[p] & (won[p] - 1);
    const int o1 = std::countr_zero(won[p]);
    const int o2 = rest != 0 ? std::countr_zero(rest) : -1;

    auto legal = [](std::uint32_t mask, int o) {
      return o >= 0 && (mask & (1u << o)) != 0;
    };
    const int direct =
        (legal(in_mask[p], o1) ? 1 : 0) + (legal(buf_mask[p], o2) ? 1 : 0);
    const int swapped =
        (legal(in_mask[p], o2) ? 1 : 0) + (legal(buf_mask[p], o1) ? 1 : 0);

    UnifiedPortGrant& g = result.port[static_cast<std::size_t>(p)];
    if (swapped > direct) {
      if (legal(in_mask[p], o2)) g.incoming_out = o2;
      if (legal(buf_mask[p], o1)) g.buffered_out = o1;
      // A true cross-swap needs both outputs; with a single won output
      // this branch is just the match stage binding the right flit.
      if (o2 >= 0) ++result.swaps;
    } else {
      if (legal(in_mask[p], o1)) g.incoming_out = o1;
      if (legal(buf_mask[p], o2)) g.buffered_out = o2;
    }
  }
  return result;
}

}  // namespace dxbar
