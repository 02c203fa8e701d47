// Generic input-buffered baseline router (paper's "Buffered 4" and
// "Buffered 8").
//
// Three-stage pipeline (RC, SA/ST, LT — Fig. 2(c)): an arriving flit is
// written into its input FIFO and becomes eligible for switch allocation
// one cycle later, giving the paper's 3-cycle per-hop latency (pinned by
// BufferedRouter.BufferWriteCostsOneCyclePerHop in
// tests/buffered_router_test.cpp).  Unlike the paper's baseline, switch
// allocation here is not speculative: a head requests an output only
// when can_send() already shows a downstream credit and a free link, so
// no grant is ever wasted — which is why Buffered 8 trails DXbar by less
// than the paper reports (EXPERIMENTS.md, Figure 5 ⚠).  The speculative
// variant is the VC router (vc_router.hpp).
//
// Buffered 4 has one 4-flit FIFO per input; Buffered 8 has two
// 4-flit FIFOs per input ("split design") whose heads arbitrate
// independently, removing head-of-line blocking — the paper's fair
// double-buffer comparison point for DXbar.
#pragma once

#include <vector>

#include "alloc/separable_allocator.hpp"
#include "common/fixed_queue.hpp"
#include "router/router.hpp"

namespace dxbar {

class BufferedRouter final : public Router {
 public:
  /// `lanes_per_input` is 1 for Buffered 4 and 2 for Buffered 8.
  BufferedRouter(NodeId id, const RouterEnv& env, int lanes_per_input);

  void step(Cycle now) override;
  [[nodiscard]] int occupancy() const override;
  void save_state(SnapshotWriter& w) const override { fields(*this, w); }
  void load_state(SnapshotReader& r) override {
    fields(*this, r);
    held_ = occupancy();
  }

 private:
  template <class Self, class Ar>
  static void fields(Self& self, Ar& ar) {
    ar(std::span(self.lanes_), self.allocator_);
  }

  /// Lane index for (link dir d, sub-queue k).
  [[nodiscard]] int lane(int dir, int k) const noexcept {
    return dir * lanes_per_input_ + k;
  }

  int lanes_per_input_;
  int depth_;
  /// kNumLinkDirs * lanes_per_input
  std::vector<FixedQueue<TimedFlit>> lanes_;
  /// Flits in the input buffers, kept so the idle test reads one field
  /// instead of every buffer.  Derived state: load_state rebuilds it,
  /// the snapshot does not carry it.
  int held_ = 0;
  SeparableAllocator allocator_;
};

}  // namespace dxbar
