// Crossbar fault injection (paper section II.C / III.E).
//
// Faults are permanent failures of one of a router's two crossbars.
// The plan is generated from a single seed shared across fault
// percentages ("randomly generated at different crossbars with the same
// random seed but varying percentages"), which we realise by drawing one
// seeded permutation of routers and marking the first ceil(f*N) faulty —
// higher percentages are strict supersets of lower ones.
//
// Detection follows the paper's BIST assumption: a fault manifests at its
// onset cycle but the switch allocator only learns of it
// `detect_delay` cycles later; in between the router wastes the cycles
// of flits that try the dead crossbar.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hpp"

namespace dxbar {

enum class CrossbarKind : std::uint8_t {
  Primary,    ///< the bufferless crossbar
  Secondary,  ///< the buffered crossbar
};

struct RouterFault {
  bool faulty = false;
  CrossbarKind failed = CrossbarKind::Primary;
  Cycle onset = 0;  ///< cycle the fault manifests

  template <class Self, class Ar>
  static void fields(Self& f, Ar& ar) {
    ar(f.faulty, f.failed, f.onset);
  }
};

class FaultPlan {
 public:
  /// `fraction` of the `num_routers` routers develop one crossbar fault;
  /// which routers, which crossbar and the onset inside [0, onset_spread)
  /// all derive from `seed`.
  FaultPlan(int num_routers, double fraction, std::uint64_t seed,
            Cycle onset_spread = 1, Cycle detect_delay = 5);

  /// Plan with no faults at all (the default for fault-free runs).
  static FaultPlan none(int num_routers) {
    return FaultPlan(num_routers, 0.0, 0, 1, 5);
  }

  [[nodiscard]] const RouterFault& at(NodeId n) const {
    return faults_[n];
  }

  /// The fault has physically manifested at `now`.
  [[nodiscard]] bool manifest(NodeId n, Cycle now) const {
    const RouterFault& f = faults_[n];
    return f.faulty && now >= f.onset;
  }

  /// The router's allocator knows about the fault at `now` (BIST fired).
  [[nodiscard]] bool detected(NodeId n, Cycle now) const {
    const RouterFault& f = faults_[n];
    return f.faulty && now >= f.onset + detect_delay_;
  }

  [[nodiscard]] Cycle detect_delay() const noexcept { return detect_delay_; }
  [[nodiscard]] int num_faulty() const noexcept { return num_faulty_; }

  // ---- snapshot protocol ----------------------------------------------
  //
  // Detection state (BIST timers) is a pure function of the plan and the
  // current cycle, so serializing the plan plus restoring the network's
  // clock reproduces mid-flight detection windows exactly.  The plan
  // itself must travel because a network may be built with a custom plan
  // the target's config cannot re-derive.

  template <class Self, class Ar>
  static void fields(Self& self, Ar& ar) {
    ar.expect(self.faults_.size(), "fault plan router count mismatch", 10);
    ar(std::span(self.faults_), self.detect_delay_, self.num_faulty_);
  }

 private:
  std::vector<RouterFault> faults_;
  Cycle detect_delay_;
  int num_faulty_ = 0;
};

}  // namespace dxbar
