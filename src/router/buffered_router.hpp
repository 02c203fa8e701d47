// Generic input-buffered baseline router (paper's "Buffered 4" and
// "Buffered 8").
//
// Three-stage pipeline (RC, speculative SA/ST, LT — Fig. 2(c)): an
// arriving flit is written into its input FIFO and becomes eligible for
// switch allocation one cycle later, giving the paper's 3-cycle per-hop
// latency.  Buffered 4 has one 4-flit FIFO per input; Buffered 8 has two
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
  void save_state(SnapshotWriter& w) const override;
  void load_state(SnapshotReader& r) override;

  /// Total buffer slots per input port == credits the upstream holds.
  [[nodiscard]] int buffer_slots_per_input() const noexcept {
    return lanes_per_input_ * depth_;
  }

 private:
  struct Entry {
    Flit flit;
    Cycle ready = 0;  ///< first cycle the flit may bid for the switch
  };

  /// Lane index for (link dir d, sub-queue k).
  [[nodiscard]] int lane(int dir, int k) const noexcept {
    return dir * lanes_per_input_ + k;
  }

  int lanes_per_input_;
  int depth_;
  std::vector<FixedQueue<Entry>> lanes_;  ///< kNumLinkDirs * lanes_per_input
  SeparableAllocator allocator_;
};

}  // namespace dxbar
