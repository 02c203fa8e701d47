// Minimally-buffered deflection router (after Fallin et al.'s MinBD).
//
// The substrate is Flit-Bless — oldest-first port assignment over all
// live links, non-productive assignments are deflections, no credits,
// no stop signals — plus one small *side buffer* shared by the whole
// router.  Each cycle at most one flit that is about to be deflected is
// captured into the side buffer instead of bouncing onto a link; each
// cycle at most one side-buffered flit is *redirected* back into the
// pipeline when an input slot is free.  The buffer thus converts
// deflections (link energy + extra hops) into cheap local storage while
// staying far smaller than an input-buffered design: its only storage
// is `buffer_depth` flit slots per router, charged by SideBufferModel
// together with the redirection mux that feeds captures/redirects past
// the four link inputs.
//
// Starvation escape: deflection alone guarantees each flit *moves* every
// cycle but not that it arrives; buffering adds the second hazard of a
// flit parking indefinitely.  Both are closed by the golden-flit rule —
// a rotating packet-id residue class is "golden" for a 256-cycle epoch;
// golden flits sort ahead of all others (so they take the most
// productive free port) and are never captured into the side buffer.
// Every packet is eventually golden, and a golden flit makes strictly
// productive progress whenever one of its productive ports is free,
// which the oldest-first sort guarantees it wins first.
//
// MinBD keeps the full deflection escape valve, so unlike the credit
// designs it remains legal on tori and link-degraded meshes.
#pragma once

#include "common/fixed_queue.hpp"
#include "router/router.hpp"

namespace dxbar {

class MinBDRouter final : public Router {
 public:
  MinBDRouter(NodeId id, const RouterEnv& env);

  void step(Cycle now) override;
  [[nodiscard]] int occupancy() const override;
  void save_state(SnapshotWriter& w) const override { fields(*this, w); }
  void load_state(SnapshotReader& r) override { fields(*this, r); }

  /// Flits currently parked in the side buffer.
  [[nodiscard]] int side_occupancy() const noexcept {
    return static_cast<int>(side_.size());
  }

  /// A flit's packet is golden when its id falls in the rotating
  /// residue class of the current 256-cycle epoch.
  [[nodiscard]] static bool is_golden(const Flit& f, Cycle now) noexcept {
    return (f.packet & 7) == ((now >> 8) & 7);
  }

 private:
  template <class Self, class Ar>
  static void fields(Self& self, Ar& ar) {
    ar(self.side_);
  }

  FixedQueue<Flit> side_;  ///< the shared side buffer
};

}  // namespace dxbar
