#include "router/scarab_router.hpp"

#include <cassert>

namespace dxbar {

void ScarabRouter::step(Cycle now) {
  SmallVec<Flit, kNumPorts> flits;
  take_arrivals(flits);
  insertion_sort(flits,
                 [](const Flit& a, const Flit& b) { return a.older_than(b); });

  bool local_taken = false;
  PortsTaken taken{};
  // The first free live productive port for `f`, claimed.
  const auto claim_productive = [&](const Flit& f) -> std::optional<Direction> {
    for (Direction d : progressive_dirs(f.dst)) {
      bool& t = taken[static_cast<std::size_t>(port_index(d))];
      if (t || !link_alive(d)) continue;
      t = true;
      return d;
    }
    return std::nullopt;
  };

  // Oldest-first: each flit takes its preferred free *productive* port;
  // a flit with no free productive port is dropped and NACKed.
  for (Flit& f : flits) {
    std::optional<Direction> out;
    if (f.dst == id_) {
      if (!local_taken) out = Direction::Local;
      local_taken = true;
    } else {
      out = claim_productive(f);
    }
    if (out) {
      traverse(*out, f);
    } else {
      assert(nack_sink != nullptr);
      nack_sink->on_drop(f, id_, now);
    }
  }

  // Inject only into a free productive port — new flits are never the
  // ones dropped.
  if (has_injection()) {
    const Flit& head = source->front();
    if (head.dst == id_) {
      if (!local_taken) eject(source->pop_front());
    } else if (const auto out = claim_productive(head)) {
      traverse(*out, source->pop_front());
    }
  }
}

}  // namespace dxbar
