#include "router/unified_router.hpp"

#include <cassert>

namespace dxbar {

UnifiedRouter::UnifiedRouter(NodeId id, const RouterEnv& env)
    : Router(id, env),
      buffers_(make_fifo_bank<Flit>(env.cfg->buffer_depth)),
      fairness_(env.cfg->fairness_threshold) {}

void UnifiedRouter::step(Cycle now) {
  (void)now;

  // ---- idle early-out ------------------------------------------------------
  // With no arrival, no buffered flit and no injection, the rest of this
  // function changes no state: every request is empty, so the allocator
  // grants nothing, no wait counter moves (they advance only for a head
  // that is present), fairness_.record(false, ...) returns at once, and
  // each set_stop(full()) would write the `false` that the previous
  // step already wrote (buffers change only inside step).
  assert(held_ == occupancy());
  if (held_ == 0 && !has_injection() && !has_arrival()) return;

  // ---- build the dual-candidate request of every input port ----------
  std::array<UnifiedPortRequest, kNumPorts> req{};
  for (int d = 0; d < kNumLinkDirs; ++d) {
    const auto& arrival = in[static_cast<std::size_t>(d)];
    if (arrival.has_value()) {
      // An arrival whose FIFO is full cannot be absorbed: elevate its
      // priority so the allocator strongly prefers granting it a port
      // (the post-pass below guarantees one in any case).
      const bool must_win = buffers_[static_cast<std::size_t>(d)].full();
      req[static_cast<std::size_t>(d)].incoming = {
          true, request_mask(*arrival, must_win), arrival->born_at, must_win};
    }
    const auto& buf = buffers_[static_cast<std::size_t>(d)];
    if (!buf.empty()) {
      // A head denied for stall_escape_delay cycles may request stopped
      // (full) receivers too; their must-win logic keeps it moving.
      const bool escalate =
          head_wait_[static_cast<std::size_t>(d)] >= env_.cfg->stall_escape_delay;
      req[static_cast<std::size_t>(d)].buffered = {
          true, request_mask(buf.front(), escalate), buf.front().born_at,
          false};
    }
  }
  // Port 4 carries only the (unbuffered) PE injection flit.
  const bool have_injection = has_injection();
  if (have_injection) {
    req[kNumPorts - 1].buffered = {
        true,
        request_mask(source->front(), injection_wait_ >= env_.cfg->stall_escape_delay),
        source->front().born_at, false};
  }

  bool waiting_exists = have_injection;
  for (const auto& b : buffers_) waiting_exists = waiting_exists || !b.empty();

  // ---- allocate --------------------------------------------------------
  const bool flipped = fairness_.flipped();
  UnifiedGrants grants = allocator_.allocate(req, !flipped);
  swap_count_ += static_cast<std::uint64_t>(grants.swaps);

  // ---- overflow escape valve -------------------------------------------
  // An ungranted arrival with a full FIFO must leave through the crossbar
  // this cycle: give it a free output, or steal one granted to a buffered
  // flit (which simply stays in its FIFO).  At most 3 other arrivals can
  // hold grants, so a port is always recoverable.
  PortsTaken out_used{};
  for (int p = 0; p < kNumPorts; ++p) {
    const UnifiedPortGrant& g = grants.port[static_cast<std::size_t>(p)];
    if (g.incoming_out >= 0) out_used[static_cast<std::size_t>(g.incoming_out)] = true;
    if (g.buffered_out >= 0) out_used[static_cast<std::size_t>(g.buffered_out)] = true;
  }
  for (int d = 0; d < kNumLinkDirs; ++d) {
    auto& arrival = in[static_cast<std::size_t>(d)];
    UnifiedPortGrant& g = grants.port[static_cast<std::size_t>(d)];
    if (!arrival.has_value() || g.incoming_out >= 0 ||
        !buffers_[static_cast<std::size_t>(d)].full()) {
      continue;
    }
    const Coord here = coord_of(id_);
    const auto free = deflection_port(
        *arrival, 0, out_used,
        [this](Direction dir) { return can_send_ignoring_stop(dir); });
    int escape = free ? port_index(*free) : -1;
    if (escape < 0) {
      // Steal a link output granted to a buffered flit.
      for (int p = 0; p < kNumPorts && escape < 0; ++p) {
        UnifiedPortGrant& victim = grants.port[static_cast<std::size_t>(p)];
        if (victim.buffered_out >= 0 &&
            victim.buffered_out != port_index(Direction::Local) &&
            env_.mesh->has_link(here, port_from_index(victim.buffered_out))) {
          escape = victim.buffered_out;
          victim.buffered_out = -1;
        }
      }
    }
    assert(escape >= 0 && "overflow escape must recover an output port");
    count_deflection(*arrival, port_from_index(escape));
    g.incoming_out = escape;
    out_used[static_cast<std::size_t>(escape)] = true;
    ++overflow_deflections_;
  }

  // ---- apply grants ------------------------------------------------------
  bool waiting_won = false;
  bool incoming_won = false;
  for (int p = 0; p < kNumPorts; ++p) {
    const UnifiedPortGrant& g = grants.port[static_cast<std::size_t>(p)];
    if (g.incoming_out >= 0 && g.buffered_out >= 0) ++dual_grant_cycles_;

    const bool head_present =
        p == kNumPorts - 1
            ? have_injection
            : !buffers_[static_cast<std::size_t>(p)].empty();
    int& wait = p == kNumPorts - 1
                    ? injection_wait_
                    : head_wait_[static_cast<std::size_t>(p)];
    if (g.buffered_out >= 0) {
      Flit f;
      if (p == kNumPorts - 1) {
        f = source->pop_front();
      } else {
        f = buffers_[static_cast<std::size_t>(p)].pop();
        --held_;
        env_.energy->buffer_read();
      }
      wait = 0;
      traverse(port_from_index(g.buffered_out), f);
      waiting_won = true;
    } else if (head_present) {
      ++wait;
    }

    if (p < kNumLinkDirs) {
      auto& arrival = in[static_cast<std::size_t>(p)];
      if (arrival.has_value()) {
        if (g.incoming_out >= 0) {
          traverse(port_from_index(g.incoming_out), *arrival);
          incoming_won = true;
        } else {
          const bool ok = buffers_[static_cast<std::size_t>(p)].push(*arrival);
          assert(ok && "escape valve must cover full-FIFO arrivals");
          (void)ok;
          ++held_;
          env_.energy->buffer_write();
        }
        arrival.reset();
      }
    }
  }

  fairness_.record(waiting_exists, waiting_won, incoming_won);

  // On/off flow control toward upstream; the escape valve above covers
  // the flits already in flight when a FIFO fills.
  for (int d = 0; d < kNumLinkDirs; ++d) {
    Channel* ch = env_.in_links[static_cast<std::size_t>(d)];
    if (ch != nullptr) {
      ch->set_stop(buffers_[static_cast<std::size_t>(d)].full());
    }
  }
}

int UnifiedRouter::occupancy() const { return flits_in(buffers_); }

}  // namespace dxbar
