// SCARAB bufferless drop router (Hayenga, Enright Jerger & Lipasti,
// MICRO'09), the paper's second bufferless comparison point.
//
// Flits are minimally adaptively routed: a flit only ever takes a
// productive port.  When every productive port is taken by an older flit
// the loser is *dropped* and a NACK is sent to its source over a
// dedicated circuit-switched NACK network (modelled by the Network's
// NackSink), which retransmits the flit with its original age so it
// eventually wins.  Injection happens only when a productive port is
// free, so fresh flits are never dropped at their source.
#pragma once

#include "router/router.hpp"

namespace dxbar {

class ScarabRouter final : public Router {
 public:
  using Router::Router;

  void step(Cycle now) override;

  /// Bufferless: nothing is resident between cycles.
  [[nodiscard]] int occupancy() const override { return 0; }
};

}  // namespace dxbar
