// Unified dual-input single-crossbar router (paper section II.B).
//
// Functionally equivalent to DXbar but built from ONE matrix crossbar
// whose output lines are segmented by transmission gates, letting the
// bufferless incoming flit (I_k) and the buffered flit (I_k') of the
// same input port traverse to different outputs simultaneously.  The
// augmented separable output-first allocator with two serial V:1
// arbiters and the conflict-free swap stage lives in
// alloc/unified_allocator.*; this router feeds it and applies its grants.
//
// Trade-off mirrored from the paper: 25% (not 33%) area overhead over
// Flit-Bless, but 15 pJ/flit crossbar traversals instead of 13 pJ
// because every traversal switches transmission gates.
//
// The paper's fault study covers only the dual-crossbar design, so this
// router ignores the fault plan (a segmented-crossbar fault model is
// future work the paper defers).
#pragma once

#include <array>

#include "alloc/fairness.hpp"
#include "alloc/unified_allocator.hpp"
#include "common/fixed_queue.hpp"
#include "router/router.hpp"

namespace dxbar {

class UnifiedRouter final : public Router {
 public:
  UnifiedRouter(NodeId id, const RouterEnv& env);

  void step(Cycle now) override;
  [[nodiscard]] int occupancy() const override;
  void save_state(SnapshotWriter& w) const override { fields(*this, w); }
  void load_state(SnapshotReader& r) override {
    fields(*this, r);
    held_ = occupancy();
  }

  // --- introspection for tests ---------------------------------------
  [[nodiscard]] std::uint64_t swap_count() const { return swap_count_; }
  [[nodiscard]] std::uint64_t dual_grant_cycles() const {
    return dual_grant_cycles_;
  }
  [[nodiscard]] std::uint64_t overflow_deflections() const {
    return overflow_deflections_;
  }

 private:
  template <class Self, class Ar>
  static void fields(Self& self, Ar& ar) {
    ar(self.buffers_, self.fairness_, self.head_wait_, self.injection_wait_,
       self.swap_count_, self.dual_grant_cycles_, self.overflow_deflections_);
  }

  std::array<FixedQueue<Flit>, kNumLinkDirs> buffers_;
  /// Flits in the input buffers, kept so the idle test reads one field
  /// instead of every buffer.  Derived state: load_state rebuilds it,
  /// the snapshot does not carry it.
  int held_ = 0;
  FairnessCounter fairness_;
  /// Consecutive cycles each FIFO head (and the injection front) has
  /// been denied a port; at cfg.stall_escape_delay it overrides stop signals.
  std::array<int, kNumLinkDirs> head_wait_{};
  int injection_wait_ = 0;
  UnifiedAllocator allocator_;

  std::uint64_t swap_count_ = 0;
  /// Cycles in which some input port sent two flits at once — the
  /// capability that distinguishes the unified crossbar.
  std::uint64_t dual_grant_cycles_ = 0;
  /// Overflow escape-valve uses (losing arrival with a full FIFO).
  std::uint64_t overflow_deflections_ = 0;
};

}  // namespace dxbar
