// DXbar dual-crossbar router (paper section II).
//
// Two crossbars per router:
//  * primary, bufferless, 4 inputs x 5 outputs — incoming flits switch in
//    a single SA/ST cycle (look-ahead routing removes the RC stage);
//  * secondary, buffered, 5 inputs x 5 outputs — fed by one 4-flit FIFO
//    per link input plus the unbuffered PE injection port.
//
// An incoming flit that wins arbitration crosses the primary crossbar;
// a loser is diverted into its input's FIFO and later crosses the
// secondary crossbar, so flits are (almost) never deflected or dropped.
// Flow control is on/off: a router asserts stop toward an upstream
// neighbour only while the FIFO for that input is full, so the links
// need no conservative credit reservation and winners stream at full
// rate.  Two liveness valves back the scheme: (1) a losing flit whose
// FIFO is full (possible only for the <=2 flits in flight when the stop
// signal was raised) escapes through the bufferless crossbar to any
// free port, deflection-style — the overflow valve minimally buffered
// deflection routers use; (2) a FIFO head or injection flit denied for
// cfg.stall_escape_delay cycles may push into a stopped receiver, whose
// must-win logic keeps the flit moving — bounding head-of-queue waiting
// and breaking the waiting cycles deflection-created turns could
// otherwise close.  Buffered
// and injection flits arbitrate at lower priority than incoming flits
// unless the fairness counter (threshold 4) has flipped the priority.
// Because both crossbars reach every output, a buffered flit and an
// incoming flit from the *same* input port can depart simultaneously
// (Fig. 3(d)) — the property plain buffer-bypass designs lack.
//
// Fault tolerance (section II.C): when one crossbar fails, 2x2 steering
// crossbars between the FIFOs and the crossbars let the router degrade
// to a buffered single-crossbar router.  The fault becomes known to the
// switch allocator only after the BIST detection delay.
#pragma once

#include <array>

#include "alloc/fairness.hpp"
#include "common/fixed_queue.hpp"
#include "router/router.hpp"

namespace dxbar {

class DXbarRouter final : public Router {
 public:
  DXbarRouter(NodeId id, const RouterEnv& env);

  void step(Cycle now) override;
  [[nodiscard]] int occupancy() const override;
  void save_state(SnapshotWriter& w) const override { fields(*this, w); }
  void load_state(SnapshotReader& r) override { fields(*this, r); }

  // --- introspection for tests ---------------------------------------
  [[nodiscard]] std::uint64_t primary_traversals() const {
    return primary_traversals_;
  }
  [[nodiscard]] std::uint64_t secondary_traversals() const {
    return secondary_traversals_;
  }
  [[nodiscard]] std::uint64_t buffered_diversions() const {
    return buffered_diversions_;
  }
  [[nodiscard]] std::uint64_t contention_stalls() const {
    return contention_stalls_;
  }
  [[nodiscard]] std::uint64_t overflow_deflections() const {
    return overflow_deflections_;
  }

 private:
  template <class Self, class Ar>
  static void fields(Self& self, Ar& ar) {
    ar(self.buffers_, self.buffered_count_, self.fairness_, self.head_wait_,
       self.injection_wait_, self.primary_traversals_,
       self.secondary_traversals_, self.buffered_diversions_,
       self.contention_stalls_, self.overflow_deflections_);
  }

  /// traverse() through the primary or the secondary crossbar, counted.
  void cross(Direction out, const Flit& f, bool via_primary) {
    traverse(out, f);
    ++(via_primary ? primary_traversals_ : secondary_traversals_);
  }

  /// Normal dual-crossbar operation (also covers an undetected
  /// secondary-crossbar fault, where losers can still be buffered but
  /// the buffers cannot drain).
  void step_normal(Cycle now, bool secondary_usable);

  /// Degraded operation with only the secondary crossbar working:
  /// all incoming flits are diverted into the FIFOs.
  void step_buffered_only(Cycle now);

  /// Degraded operation with only the primary crossbar working: the 2x2
  /// steering crossbars feed each input line from either the incoming
  /// register or the FIFO head.
  void step_primary_only(Cycle now);

  /// Runs the waiting phase (FIFO heads + injection) through a crossbar.
  /// Returns true when at least one waiting flit departed.
  bool serve_waiting(PortsTaken& taken, bool via_primary);

  /// Divert an incoming flit into its input FIFO (buffer-write energy).
  /// Asserts the upstream stop signal when this fills the FIFO.
  void divert_to_buffer(Direction from, const Flit& f);

  /// Pop the head of input FIFO `dir`, releasing the upstream stop
  /// signal when the FIFO was full.  Keeps buffered_count_ in sync.
  Flit pop_buffer(std::size_t dir);

  /// Bufferless escape: route a losing flit whose FIFO is full to the
  /// best free link port (counts a deflection when non-productive).
  void deflect(Flit f, PortsTaken& taken, bool via_primary);

  [[nodiscard]] bool any_waiting() const;

  std::array<FixedQueue<Flit>, kNumLinkDirs> buffers_;
  /// Total flits across buffers_, maintained on push/pop so the
  /// per-cycle idle check and occupancy() never scan the FIFOs.
  int buffered_count_ = 0;
  FairnessCounter fairness_;
  /// Consecutive cycles each FIFO head (and the injection front) has
  /// been denied a port; at cfg.stall_escape_delay it overrides stop signals.
  std::array<int, kNumLinkDirs> head_wait_{};
  int injection_wait_ = 0;

  std::uint64_t primary_traversals_ = 0;
  std::uint64_t secondary_traversals_ = 0;
  std::uint64_t buffered_diversions_ = 0;
  std::uint64_t contention_stalls_ = 0;   ///< lost a port to another flit
  std::uint64_t overflow_deflections_ = 0;  ///< escape-valve uses
};

}  // namespace dxbar
