#include "router/bless_router.hpp"

#include <algorithm>
#include <cassert>

#include "routing/deflect.hpp"

namespace dxbar {

BlessRouter::BlessRouter(NodeId id, const RouterEnv& env) : Router(id, env) {
  // Live out-degree: mesh edges minus dead links (link faults kill both
  // directions, so in-degree matches and the assignment invariant holds).
  degree_ = 0;
  for (Direction d : kLinkDirs) {
    if (env_.out_links[port_index(d)] != nullptr) ++degree_;
  }
}

void BlessRouter::step(Cycle now) {
  // ---- gather this cycle's flits ---------------------------------------
  SmallVec<Flit, kNumPorts> flits;
  int incoming = 0;
  for (int d = 0; d < kNumLinkDirs; ++d) {
    auto& arrival = in[static_cast<std::size_t>(d)];
    if (arrival.has_value()) {
      flits.push_back(*arrival);
      arrival.reset();
      ++incoming;
    }
  }
  // Inject only when an input slot is free: the assignment below then
  // always finds a port for every flit (#flits <= degree, and at most
  // one flit can take the Local port).
  if (has_injection() && incoming < degree_) {
    flits.push_back(source->pop_front());
  }
  if (flits.empty()) return;

  // ---- oldest-first port assignment ------------------------------------
  insertion_sort(flits,
                 [](const Flit& a, const Flit& b) { return a.older_than(b); });

  bool local_taken = false;
  std::array<bool, kNumLinkDirs> link_taken{};
  for (Flit& f : flits) {
    env_.energy->crossbar_traversal();

    if (f.dst == id_ && !local_taken) {
      local_taken = true;
      eject(f);
      continue;
    }

    // Walk the ranking (productive ports first) and take the first free
    // existing link; a non-productive assignment is a deflection.
    const auto ranking =
        deflection_order(f, f.packet * 0x9E3779B97F4A7C15ULL + now);
    bool assigned = false;
    for (Direction d : ranking) {
      const int di = port_index(d);
      if (link_taken[static_cast<std::size_t>(di)]) continue;
      if (!link_alive(d)) continue;
      link_taken[static_cast<std::size_t>(di)] = true;
      if (!progressive_dirs(f.dst).contains(d)) ++f.deflections;
      send_link(d, f);
      assigned = true;
      break;
    }
    assert(assigned && "Bless invariant: every flit gets a port");
    (void)assigned;
  }
}

}  // namespace dxbar
