// Flit-Bless bufferless deflection router (Moscibroda & Mutlu, ISCA'09),
// the paper's primary bufferless comparison point.
//
// No input buffers: every flit present at the router is assigned *some*
// output port every cycle.  Arbitration is oldest-first; the oldest flit
// is guaranteed its productive port, younger flits may be deflected to
// non-productive ports (each deflection adds hops and link/crossbar
// energy — the behaviour that blows up Bless's power at high load).
// Injection is permitted whenever an input slot is free (fewer incoming
// flits than the router's link degree).  Two-stage pipeline: SA/ST + LT.
#pragma once

#include "router/router.hpp"

namespace dxbar {

class BlessRouter final : public Router {
 public:
  using Router::Router;

  void step(Cycle now) override;

  /// Bufferless: nothing is ever resident between cycles.
  [[nodiscard]] int occupancy() const override { return 0; }
};

}  // namespace dxbar
