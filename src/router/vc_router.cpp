#include "router/vc_router.hpp"

#include <cassert>

namespace dxbar {

VcRouter::VcRouter(NodeId id, const RouterEnv& env)
    : Router(id, env),
      num_vcs_(env.cfg->num_vcs),
      vc_depth_(env.cfg->buffer_depth / env.cfg->num_vcs),
      class_vcs_(env.cfg->workload == WorkloadKind::ClosedLoop &&
                 env.cfg->num_vcs >= 2),
      vc_pick_(make_arbiter_bank<kNumLinkDirs>(num_vcs_)),
      out_vc_pick_(make_arbiter_bank<kNumLinkDirs>(num_vcs_)),
      allocator_(kNumPorts, kNumPorts) {
  assert(vc_depth_ >= 1);
  vcs_.reserve(static_cast<std::size_t>(kNumLinkDirs * num_vcs_));
  for (int i = 0; i < kNumLinkDirs * num_vcs_; ++i) {
    vcs_.emplace_back(static_cast<std::size_t>(vc_depth_));
  }
}

void VcRouter::step(Cycle now) {
  // Idle early-out: with no arrival, no buffered flit and no injection,
  // every VC pick (a const pick, not a grant) returns -1 and every
  // request is zero, so no arbiter pointer moves and nothing is written.
  assert(held_ == occupancy());
  if (held_ == 0 && !has_injection() && !has_arrival()) return;

  const int inj_input = kNumLinkDirs;
  // Speculative: bid for every route port with a live link; the
  // downstream-credit check happens only after winning.
  const auto speculative_mask = [this](const Flit& f) {
    std::uint32_t mask = 0;
    for (Direction dir : routes(f.dst)) {
      if (dir == Direction::Local || link_alive(dir)) {
        mask |= 1u << port_index(dir);
      }
    }
    return mask;
  };

  // ---- per-input VC selection (round-robin among eligible heads) ------
  std::array<int, kNumLinkDirs> chosen_vc;
  chosen_vc.fill(-1);
  std::array<std::uint32_t, kNumPorts> requests{};
  for (int d = 0; d < kNumLinkDirs; ++d) {
    std::uint32_t eligible = 0;
    for (int v = 0; v < num_vcs_; ++v) {
      const auto& q = vcs_[static_cast<std::size_t>(vc_index(d, v))];
      if (!q.empty() && now >= q.front().ready) eligible |= 1u << v;
    }
    const int v = vc_pick_[static_cast<std::size_t>(d)].pick(eligible);
    if (v < 0) continue;
    chosen_vc[static_cast<std::size_t>(d)] = v;
    requests[static_cast<std::size_t>(d)] = speculative_mask(
        vcs_[static_cast<std::size_t>(vc_index(d, v))].front().flit);
  }
  if (has_injection()) {
    requests[static_cast<std::size_t>(inj_input)] =
        speculative_mask(source->front());
  }

  // ---- switch allocation + (post-win) VC allocation ---------------------
  const std::array<int, kNumPorts> grants = allocator_.allocate(requests);
  for (int i = 0; i <= inj_input; ++i) {
    const int out = grants[static_cast<std::size_t>(i)];
    if (out < 0) continue;
    const Direction out_dir = port_from_index(out);

    // Output VC / credit check (the speculative part).  Under the
    // closed-loop class partition a flit may only claim downstream VCs
    // of its own virtual network.
    const Flit& head =
        i == inj_input
            ? source->front()
            : vcs_[static_cast<std::size_t>(vc_index(
                       i, chosen_vc[static_cast<std::size_t>(i)]))]
                  .front()
                  .flit;
    int out_vc = -1;
    if (out_dir != Direction::Local) {
      Channel* ch = env_.out_links[static_cast<std::size_t>(out)];
      std::uint32_t avail = 0;
      for (int v = 0; v < num_vcs_; ++v) {
        if (ch->can_send_vc(v)) avail |= 1u << v;
      }
      avail &= class_mask(head.cls);
      out_vc = out_vc_pick_[static_cast<std::size_t>(out)].grant(avail);
      if (out_vc < 0) {
        // Speculation failed: no downstream VC credit; the crossbar slot
        // goes unused this cycle.
        ++speculation_failures_;
        continue;
      }
    }

    Flit f;
    if (i == inj_input) {
      f = source->pop_front();
    } else {
      const int v = chosen_vc[static_cast<std::size_t>(i)];
      f = vcs_[static_cast<std::size_t>(vc_index(i, v))].pop().flit;
      --held_;
      env_.energy->buffer_read();
      Channel* up = env_.in_links[static_cast<std::size_t>(i)];
      if (up != nullptr) up->return_credit_vc(v);
    }
    env_.energy->crossbar_traversal();
    if (out_dir == Direction::Local) {
      eject(f);
    } else {
      ++f.hops;
      env_.energy->link_traversal();
      env_.out_links[static_cast<std::size_t>(out)]->send_vc(f, out_vc);
    }
  }

  // ---- buffer write: arrivals land in the VC the sender picked ---------
  for (int d = 0; d < kNumLinkDirs; ++d) {
    auto& arrival = in[static_cast<std::size_t>(d)];
    if (!arrival.has_value()) continue;
    const int v = arrival->vc;
    const bool ok = vcs_[static_cast<std::size_t>(vc_index(d, v))].push(
        TimedFlit{*arrival, now + 1});
    assert(ok && "per-VC credits must prevent overflow");
    (void)ok;
    ++held_;
    env_.energy->buffer_write();
    arrival.reset();
  }
}

int VcRouter::occupancy() const { return flits_in(vcs_); }

}  // namespace dxbar
