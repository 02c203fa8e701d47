#include "router/bless_router.hpp"

#include <cassert>

namespace dxbar {

void BlessRouter::step(Cycle now) {
  // ---- gather this cycle's flits ---------------------------------------
  SmallVec<Flit, kNumPorts> flits;
  const int incoming = take_arrivals(flits);
  // Inject only when an input slot is free: the assignment below then
  // always finds a port for every flit (#flits <= live degree, and at
  // most one flit can take the Local port).
  if (has_injection() && incoming < live_degree()) {
    flits.push_back(source->pop_front());
  }
  if (flits.empty()) return;

  // ---- oldest-first port assignment ------------------------------------
  insertion_sort(flits,
                 [](const Flit& a, const Flit& b) { return a.older_than(b); });

  bool local_taken = false;
  PortsTaken taken{};
  for (Flit& f : flits) {
    if (f.dst == id_ && !local_taken) {
      local_taken = true;
      traverse(Direction::Local, f);
      continue;
    }

    // The first free live link in the ranking (productive ports first);
    // a non-productive assignment is a deflection.
    const auto out = deflection_port(
        f, now, taken, [this](Direction d) { return link_alive(d); });
    assert(out && "Bless invariant: every flit gets a port");
    taken[static_cast<std::size_t>(port_index(*out))] = true;
    count_deflection(f, *out);
    traverse(*out, f);
  }
}

}  // namespace dxbar
