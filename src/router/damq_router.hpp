// DAMQ shared-buffer router (dynamically allocated multi-queue, after
// Tamir & Frazier; the arXiv 0910.1852 lineage in PAPERS.md).
//
// One pool of kNumLinkDirs * buffer_depth flit slots is shared by all
// four input ports: each port keeps a logical FIFO (a linked list in
// hardware — the pointer overhead is charged by DamqBufferModel), and
// slots migrate to whichever input is actually loaded instead of being
// statically partitioned 4/4/4/4 like Buffered 4.  At equal storage the
// win is burst absorption: one congested input may claim up to
// 1 + (pool - live_ports) slots while idle inputs shrink to zero.
//
// Flow control is credit-based over the shared pool.  The router is the
// single allocator: upstream links start with zero credits and the
// router *grants* credits one at a time (Channel::return_credit) only
// while it can guarantee a slot.  The accounting invariant is
//
//     sum_d claim(d) <= pool,   claim(d) = queued(d) + outstanding(d)
//
// where outstanding(d) counts granted credits not yet consumed by an
// arrival (held upstream or riding the 2-cycle link).  Arrivals only
// happen against outstanding credits, so overflow is impossible by
// construction — no on/off stop races, no escape valve needed.
//
// Per-port reservation (the anti-monopolization rule): each live input
// owns a private region of window() = min(kGrantWindow, depth) slots;
// only claims beyond it draw from the shared region of
// pool - live_ports * window() slots.  The private region is sized to
// the grant window deliberately: grants are speculative (the router
// cannot see whether the upstream has traffic), so an idle neighbour
// parks up to window() granted credits indefinitely — reserving exactly
// that much per port means parked credits can never eat shared space,
// and the shared region is consumed only by *queued* flits, i.e. by
// demonstrated demand.  (Reserving less causes congestion collapse:
// idle-port credit parking shrinks the effective pool to a fraction of
// its size and throughput falls off a cliff past the knee.)  A port
// under its private window can always be granted — a hot neighbour can
// monopolize the shared region but never starve another port of its
// guaranteed slots, which preserves the Buffered-4 forward-progress
// precondition (every input eventually accepts) that the closed-loop
// deadlock-freedom argument builds on (DESIGN.md sections 12/14).
//
// Like the other credit-based designs, DAMQ has no deflection escape
// valve, so SimConfig::validate() forbids it on tori and degraded
// (link-fault) topologies where turn-model acyclicity is lost.
#pragma once

#include <array>
#include <vector>

#include "alloc/separable_allocator.hpp"
#include "common/fixed_queue.hpp"
#include "router/router.hpp"

namespace dxbar {

class DamqRouter final : public Router {
 public:
  DamqRouter(NodeId id, const RouterEnv& env);

  void step(Cycle now) override;
  [[nodiscard]] int occupancy() const override;
  void save_state(SnapshotWriter& w) const override { fields(*this, w); }
  void load_state(SnapshotReader& r) override {
    fields(*this, r);
    held_ = occupancy();
  }

  /// Total shared slots (the whole pool; hardware provisions the SRAM
  /// regardless of how many mesh-edge ports exist).
  [[nodiscard]] int pool_slots() const noexcept { return pool_; }
  /// Slots currently held by input port d's logical FIFO.
  [[nodiscard]] int queued(int d) const noexcept {
    return static_cast<int>(queues_[static_cast<std::size_t>(d)].size());
  }
  /// Credits granted to upstream d and not yet consumed by an arrival.
  [[nodiscard]] int outstanding(int d) const noexcept {
    return outstanding_[static_cast<std::size_t>(d)];
  }
  /// Port the next grant sweep starts at; rotates by one every step.
  [[nodiscard]] int grant_rr() const noexcept { return grant_rr_; }

  /// Credits an upstream may hold at once: enough to cover the
  /// grant-post + link round trip (credit usable next cycle, flit lands
  /// two cycles after the send) so a granted stream never stalls on
  /// grant latency, and small enough that idle ports hold back almost
  /// nothing from the shared region.
  static constexpr int kGrantWindow = 3;

 private:
  template <class Self, class Ar>
  static void fields(Self& self, Ar& ar) {
    ar(self.queues_, self.outstanding_, self.grant_rr_, self.allocator_);
  }

  [[nodiscard]] bool live(int d) const noexcept {
    return env_.in_links[static_cast<std::size_t>(d)] != nullptr;
  }
  [[nodiscard]] int claim(int d) const noexcept {
    return queued(d) + outstanding_[static_cast<std::size_t>(d)];
  }
  /// Private-region size per live port (the grant window, clamped so a
  /// 1-deep pool still partitions cleanly).
  [[nodiscard]] int window() const noexcept {
    return kGrantWindow < depth_ ? kGrantWindow : depth_;
  }
  /// Claims beyond each live port's private region.
  [[nodiscard]] int shared_used() const noexcept;
  [[nodiscard]] bool can_grant(int d) const noexcept;
  /// Posts every credit the invariant allows, round-robin across ports
  /// so no input is structurally favoured when the pool runs low.
  void grant_credits();

  int depth_;   ///< per-port slots at the Buffered-4-equivalent budget
  int pool_;    ///< kNumLinkDirs * depth_
  int shared_;  ///< pool_ minus window() reserved slots per live input
  std::array<FixedQueue<TimedFlit>, kNumLinkDirs> queues_;
  /// Flits in the logical FIFOs, kept so the idle test reads one field
  /// instead of every FIFO.  Derived state: load_state rebuilds it,
  /// the snapshot does not carry it.
  int held_ = 0;
  std::array<int, kNumLinkDirs> outstanding_{};
  int grant_rr_ = 0;  ///< round-robin start of the grant sweep
  SeparableAllocator allocator_;
};

}  // namespace dxbar
