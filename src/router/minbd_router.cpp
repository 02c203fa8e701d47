#include "router/minbd_router.hpp"

#include <cassert>

namespace dxbar {

MinBDRouter::MinBDRouter(NodeId id, const RouterEnv& env)
    : Router(id, env),
      side_(static_cast<std::size_t>(env.cfg->buffer_depth)) {}

void MinBDRouter::step(Cycle now) {
  // ---- gather this cycle's flits ---------------------------------------
  SmallVec<Flit, kNumPorts> flits;
  int incoming = take_arrivals(flits);

  // ---- redirection: one side-buffered flit re-enters the pipeline ------
  // Remember which flit was redirected so the capture stage below cannot
  // bounce it straight back in the same cycle (that would be a storage
  // livelock, not progress).
  PacketId redirected_pkt = ~PacketId{0};
  std::uint32_t redirected_seq = 0;
  if (!side_.empty() && incoming < live_degree()) {
    const Flit f = side_.pop();
    env_.energy->buffer_read();
    redirected_pkt = f.packet;
    redirected_seq = f.seq;
    flits.push_back(f);
    ++incoming;
  }

  // Inject only when an input slot is free, exactly like Flit-Bless: the
  // assignment invariant (#flits <= degree, at most one takes Local)
  // then always finds every non-captured flit a port.
  if (has_injection() && incoming < live_degree()) {
    flits.push_back(source->pop_front());
  }
  if (flits.empty()) return;

  // ---- golden-first, then oldest-first port assignment ------------------
  insertion_sort(flits, [now](const Flit& a, const Flit& b) {
    const bool ga = is_golden(a, now);
    const bool gb = is_golden(b, now);
    if (ga != gb) return ga;
    return a.older_than(b);
  });

  bool local_taken = false;
  bool captured = false;
  PortsTaken taken{};
  for (Flit& f : flits) {
    if (f.dst == id_ && !local_taken) {
      local_taken = true;
      traverse(Direction::Local, f);
      continue;
    }

    const auto out = deflection_port(
        f, now, taken, [this](Direction d) { return link_alive(d); });
    assert(out && "MinBD invariant: every flit gets a port or the buffer");
    // Buffer capture: a flit about to take a *non-productive* port is
    // parked in the side buffer instead (one per cycle, never golden,
    // never the flit just redirected).  The port it would have taken
    // stays free for later flits in the sort order.
    if (!progressive_dirs(f.dst).contains(*out) && !captured &&
        !side_.full() && !is_golden(f, now) &&
        !(f.packet == redirected_pkt && f.seq == redirected_seq)) {
      captured = true;
      env_.energy->crossbar_traversal();
      side_.push(f);
      env_.energy->buffer_write();
      continue;
    }
    taken[static_cast<std::size_t>(port_index(*out))] = true;
    count_deflection(f, *out);
    traverse(*out, f);
  }
}

int MinBDRouter::occupancy() const {
  return static_cast<int>(side_.size());
}

}  // namespace dxbar
