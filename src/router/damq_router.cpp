#include "router/damq_router.hpp"

#include <cassert>

namespace dxbar {

DamqRouter::DamqRouter(NodeId id, const RouterEnv& env)
    : Router(id, env),
      depth_(env.cfg->buffer_depth),
      pool_(kNumLinkDirs * env.cfg->buffer_depth),
      queues_(make_fifo_bank<TimedFlit>(pool_)),
      allocator_(kNumPorts, kNumPorts) {
  shared_ = pool_ - live_degree() * window();
  // Seed the initial credit distribution: channels are built with zero
  // credits for this design, so everything the upstream may ever hold
  // flows through the same grant path (posted here as pending credits,
  // usable from cycle 0 after the first channel advance).
  grant_credits();
}

int DamqRouter::shared_used() const noexcept {
  const int w = window();
  int used = 0;
  for (int d = 0; d < kNumLinkDirs; ++d) {
    const int c = claim(d);
    if (c > w) used += c - w;
  }
  return used;
}

bool DamqRouter::can_grant(int d) const noexcept {
  if (!live(d)) return false;
  // Outstanding credits never exceed the private window, so an idle
  // upstream can park credits only in its own reservation — the shared
  // region is filled exclusively by queued flits (real demand).
  if (outstanding_[static_cast<std::size_t>(d)] >= window()) return false;
  // Claims inside the private region are always grantable; beyond it
  // the grant lands in the shared region while that has room.
  return claim(d) < window() || shared_used() < shared_;
}

void DamqRouter::grant_credits() {
  // Fixpoint sweep, at most one grant per port per pass so a low pool
  // is split round-robin instead of handed wholesale to the first port.
  bool granted = true;
  while (granted) {
    granted = false;
    for (int k = 0; k < kNumLinkDirs; ++k) {
      const int d = (grant_rr_ + k) % kNumLinkDirs;
      if (!can_grant(d)) continue;
      env_.in_links[static_cast<std::size_t>(d)]->return_credit();
      ++outstanding_[static_cast<std::size_t>(d)];
      granted = true;
    }
  }
  grant_rr_ = (grant_rr_ + 1) % kNumLinkDirs;
}

void DamqRouter::step(Cycle now) {
  // Idle early-out.  With no arrival, no queued flit and no injection,
  // the allocator gets an all-zero request vector (no pointer moves) and
  // no claim changes.  grant_credits() ran to its fixpoint at the end of
  // the previous step (or in the constructor), and can_grant depends
  // only on the claims, so its sweep would grant nothing; the one state
  // it still moves is the round-robin start, rotated here the same way.
  assert(held_ == occupancy());
  if (held_ == 0 && !has_injection() && !has_arrival()) {
    grant_rr_ = (grant_rr_ + 1) % kNumLinkDirs;
    return;
  }

  // Same 3-stage pipeline and 5x5 separable allocation as the buffered
  // baseline (RC / SA-ST / LT): heads of the four logical FIFOs plus
  // the injection front bid for output ports; arrivals written this
  // cycle become eligible the next.
  const int inj_input = kNumLinkDirs;

  std::array<std::uint32_t, kNumPorts> requests{};
  for (int d = 0; d < kNumLinkDirs; ++d) {
    const auto& q = queues_[static_cast<std::size_t>(d)];
    if (!q.empty() && now >= q.front().ready) {
      requests[static_cast<std::size_t>(d)] = request_mask(q.front().flit);
    }
  }
  if (has_injection()) {
    requests[static_cast<std::size_t>(inj_input)] =
        request_mask(source->front());
  }

  const std::array<int, kNumPorts> grants = allocator_.allocate(requests);
  for (int i = 0; i < kNumPorts; ++i) {
    const int out = grants[static_cast<std::size_t>(i)];
    if (out < 0) continue;

    Flit f;
    if (i == inj_input) {
      f = source->pop_front();
    } else {
      f = queues_[static_cast<std::size_t>(i)].pop().flit;
      --held_;
      env_.energy->buffer_read();
    }
    traverse(port_from_index(out), f);
  }

  // Arrivals consume the credits they were granted against; the slot
  // guarantee is the accounting invariant, not per-queue headroom.
  for (int d = 0; d < kNumLinkDirs; ++d) {
    auto& arrival = in[static_cast<std::size_t>(d)];
    if (!arrival.has_value()) continue;
    assert(outstanding_[static_cast<std::size_t>(d)] > 0 &&
           "DAMQ arrival without an outstanding credit");
    --outstanding_[static_cast<std::size_t>(d)];
    const bool ok = queues_[static_cast<std::size_t>(d)].push(
        TimedFlit{*arrival, now + 1});
    assert(ok && "DAMQ grant accounting must prevent pool overflow");
    (void)ok;
    ++held_;
    env_.energy->buffer_write();
    arrival.reset();
  }

  // Re-grant freed slots (and any shared headroom arrivals opened up).
  grant_credits();

#ifndef NDEBUG
  int committed = 0;
  for (int d = 0; d < kNumLinkDirs; ++d) committed += claim(d);
  assert(committed <= pool_ && "DAMQ claim total exceeds the pool");
#endif
}

int DamqRouter::occupancy() const { return flits_in(queues_); }

}  // namespace dxbar
