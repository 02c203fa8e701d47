#include "router/scarab_router.hpp"

#include <algorithm>
#include <cassert>

#include "routing/deflect.hpp"

namespace dxbar {

ScarabRouter::ScarabRouter(NodeId id, const RouterEnv& env)
    : Router(id, env) {}

void ScarabRouter::step(Cycle now) {
  SmallVec<Flit, kNumPorts> flits;
  for (int d = 0; d < kNumLinkDirs; ++d) {
    auto& arrival = in[static_cast<std::size_t>(d)];
    if (arrival.has_value()) {
      flits.push_back(*arrival);
      arrival.reset();
    }
  }

  insertion_sort(flits,
                 [](const Flit& a, const Flit& b) { return a.older_than(b); });

  bool local_taken = false;
  std::array<bool, kNumLinkDirs> link_taken{};

  // Oldest-first: each flit takes its preferred free *productive* port;
  // a flit with no free productive port is dropped and NACKed.
  for (Flit& f : flits) {
    if (f.dst == id_) {
      if (!local_taken) {
        local_taken = true;
        env_.energy->crossbar_traversal();
        eject(f);
      } else {
        assert(nack_sink != nullptr);
        nack_sink->on_drop(f, id_, now);
      }
      continue;
    }
    bool assigned = false;
    for (Direction d : progressive_dirs(f.dst)) {
      const int di = port_index(d);
      if (link_taken[static_cast<std::size_t>(di)]) continue;
      if (!link_alive(d)) continue;
      link_taken[static_cast<std::size_t>(di)] = true;
      env_.energy->crossbar_traversal();
      send_link(d, f);
      assigned = true;
      break;
    }
    if (!assigned) {
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
    } else {
      for (Direction d : progressive_dirs(head.dst)) {
        const int di = port_index(d);
        if (link_taken[static_cast<std::size_t>(di)]) continue;
        if (!link_alive(d)) continue;
        link_taken[static_cast<std::size_t>(di)] = true;
        env_.energy->crossbar_traversal();
        send_link(d, source->pop_front());
        break;
      }
    }
  }
}

}  // namespace dxbar
