// Extension baseline: virtual-channel router with speculative switch
// allocation — the "generic VC-based router" family the paper's Fig 2
// pipelines describe (BW/RC, VA+speculative SA, ST, LT; look-ahead
// removes the dedicated RC cycle, leaving a 3-cycle per-hop pipeline
// like Buffered 4/8).
//
// Each input port has `num_vcs` FIFOs.  Per cycle each input nominates
// one eligible VC head (round-robin across VCs), the separable switch
// allocator matches inputs to outputs, and the winner then tries to
// claim a downstream VC credit — *after* winning, which is what makes
// the allocation speculative: a winner without a downstream credit
// wastes the output's cycle, the baseline inefficiency the paper's
// single-cycle DXbar pipeline avoids.
//
// Closed-loop request-reply runs partition the VCs into two virtual
// networks — requests claim downstream VCs in [0, num_vcs/2), replies
// in [num_vcs/2, num_vcs) — so a reply can never wait on a buffer
// occupied by a request and request-reply cycles cannot protocol
// deadlock (DESIGN.md section 12).  Single-class runs are untouched
// (the partition only activates for workload=closedloop).
#pragma once

#include <array>
#include <vector>

#include "alloc/arbiter.hpp"
#include "alloc/separable_allocator.hpp"
#include "common/fixed_queue.hpp"
#include "router/router.hpp"

namespace dxbar {

class VcRouter final : public Router {
 public:
  VcRouter(NodeId id, const RouterEnv& env);

  void step(Cycle now) override;
  [[nodiscard]] int occupancy() const override;
  void save_state(SnapshotWriter& w) const override { fields(*this, w); }
  void load_state(SnapshotReader& r) override {
    fields(*this, r);
    held_ = occupancy();
  }

  // --- introspection for tests ---------------------------------------
  [[nodiscard]] std::uint64_t speculation_failures() const {
    return speculation_failures_;
  }

 private:
  template <class Self, class Ar>
  static void fields(Self& self, Ar& ar) {
    ar(std::span(self.vcs_), self.vc_pick_, self.out_vc_pick_, self.allocator_,
       self.speculation_failures_);
  }

  [[nodiscard]] int vc_index(int dir, int vc) const noexcept {
    return dir * num_vcs_ + vc;
  }

  /// Downstream-VC mask a flit of message class `cls` may claim.
  [[nodiscard]] std::uint32_t class_mask(std::uint8_t cls) const noexcept {
    if (!class_vcs_) return ~std::uint32_t{0};
    const int half = num_vcs_ / 2;
    const std::uint32_t lo = (1u << half) - 1u;
    return cls == 0 ? lo : ((1u << num_vcs_) - 1u) & ~lo;
  }

  int num_vcs_;
  int vc_depth_;
  bool class_vcs_;  ///< partition VCs by message class (closed loop)
  std::vector<FixedQueue<TimedFlit>> vcs_;  ///< kNumLinkDirs * num_vcs_
  /// Flits in the input buffers, kept so the idle test reads one field
  /// instead of every buffer.  Derived state: load_state rebuilds it,
  /// the snapshot does not carry it.
  int held_ = 0;
  std::array<RoundRobinArbiter, kNumLinkDirs> vc_pick_;  ///< per input dir
  std::array<RoundRobinArbiter, kNumLinkDirs> out_vc_pick_;  ///< per output dir
  SeparableAllocator allocator_;
  std::uint64_t speculation_failures_ = 0;
};

}  // namespace dxbar
