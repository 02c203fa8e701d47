#include "router/dxbar_router.hpp"

#include <cassert>

namespace dxbar {

DXbarRouter::DXbarRouter(NodeId id, const RouterEnv& env)
    : Router(id, env),
      buffers_(make_fifo_bank<Flit>(env.cfg->buffer_depth)),
      fairness_(env.cfg->fairness_threshold) {}

void DXbarRouter::divert_to_buffer(Direction from, const Flit& f) {
  const std::size_t i = static_cast<std::size_t>(port_index(from));
  const bool ok = buffers_[i].push(f);
  assert(ok && "divert_to_buffer requires a free slot");
  (void)ok;
  ++buffered_count_;
  env_.energy->buffer_write();
  ++buffered_diversions_;
  // On/off flow control, maintained on full/non-full transitions: tell
  // the upstream neighbour to pause while this FIFO is full.  The
  // one-cycle signal delay means up to two in-flight flits can still
  // land on a full FIFO; deflect() covers that race.
  if (buffers_[i].full() && env_.in_links[i] != nullptr) {
    env_.in_links[i]->set_stop(true);
  }
}

void DXbarRouter::deflect(Flit f, PortsTaken& taken, bool via_primary) {
  // Bufferless escape valve: a losing flit whose FIFO is full takes the
  // best free link port (productive first).  An assignment always exists
  // because at most `degree` incoming flits contend and the must-deflect
  // flits are placed before any lower-priority phase can claim ports.
  const auto out = deflection_port(f, f.hops, taken, [this](Direction d) {
    return can_send_ignoring_stop(d);
  });
  assert(out && "deflection escape must always find a port");
  taken[static_cast<std::size_t>(port_index(*out))] = true;
  count_deflection(f, *out);
  ++overflow_deflections_;
  cross(*out, f, via_primary);
}

bool DXbarRouter::any_waiting() const {
  return buffered_count_ != 0 || has_injection();
}

bool DXbarRouter::serve_waiting(PortsTaken& taken, bool via_primary) {
  Candidates waiting;
  for (int d = 0; d < kNumLinkDirs; ++d) {
    if (!buffers_[static_cast<std::size_t>(d)].empty()) {
      waiting.push_back({Candidate::Kind::BufferHead, d,
                         &buffers_[static_cast<std::size_t>(d)].front()});
    }
  }
  if (has_injection()) {
    waiting.push_back({Candidate::Kind::Injection, -1, &source->front()});
  }
  if (waiting.empty()) return false;
  sort_by_age(waiting);

  bool won = false;
  for (const Candidate& c : waiting) {
    // A head denied for stall_escape_delay cycles overrides stop signals
    // (the stopped receiver's must-win logic keeps the flit moving).
    int& wait = c.kind == Candidate::Kind::BufferHead
                    ? head_wait_[static_cast<std::size_t>(c.dir)]
                    : injection_wait_;
    const auto out = claim_route_port(*c.flit, taken,
                                      wait >= env_.cfg->stall_escape_delay);
    if (!out) {
      ++contention_stalls_;
      ++wait;
      continue;
    }
    wait = 0;
    Flit f;
    if (c.kind == Candidate::Kind::BufferHead) {
      f = pop_buffer(static_cast<std::size_t>(c.dir));
      env_.energy->buffer_read();
    } else {
      // pop_front stamps the injection cycle; use the stamped flit.
      f = source->pop_front();
    }
    cross(*out, f, via_primary);
    won = true;
  }
  return won;
}

void DXbarRouter::step_normal(Cycle now, bool secondary_usable) {
  (void)now;
  PortsTaken taken{};

  // Incoming flits split by whether their FIFO could still absorb them:
  // a flit with a full FIFO must win *some* port this cycle (deflection
  // as the last resort), so it is placed before every other phase.
  Candidates must_win;
  Candidates incoming;
  for (int d = 0; d < kNumLinkDirs; ++d) {
    const auto& arrival = in[static_cast<std::size_t>(d)];
    if (!arrival.has_value()) continue;
    // Input registers are cleared in one sweep at the end of the step,
    // after every candidate referencing them has been consumed.
    Candidate c{Candidate::Kind::Incoming, d, &*arrival};
    if (buffers_[static_cast<std::size_t>(d)].full()) {
      must_win.push_back(c);
    } else {
      incoming.push_back(c);
    }
  }
  sort_by_age(must_win);
  sort_by_age(incoming);

  const bool waiting_exists = any_waiting();
  const bool flipped = fairness_.flipped();
  bool waiting_won = false;
  bool incoming_won = false;

  for (const Candidate& c : must_win) {
    if (const auto out =
            claim_route_port(*c.flit, taken, /*ignore_stop=*/true)) {
      cross(*out, *c.flit, /*via_primary=*/true);
      incoming_won = true;
    } else {
      ++contention_stalls_;
      deflect(*c.flit, taken, /*via_primary=*/true);
    }
  }

  // Fairness flip: buffered/injection flits are allocated output ports
  // ahead of the (bufferable) incoming flits this cycle.
  if (flipped && secondary_usable && waiting_exists) {
    waiting_won = serve_waiting(taken, /*via_primary=*/false);
  }

  for (const Candidate& c : incoming) {
    if (const auto out = claim_route_port(*c.flit, taken)) {
      cross(*out, *c.flit, /*via_primary=*/true);
      incoming_won = true;
    } else {
      ++contention_stalls_;
      divert_to_buffer(port_from_index(c.dir), *c.flit);
    }
  }
  for (int d = 0; d < kNumLinkDirs; ++d) {
    in[static_cast<std::size_t>(d)].reset();
  }

  // Re-probe instead of reusing waiting_exists: the incoming loop above
  // may have just diverted a loser into a FIFO, and that head may still
  // depart through the secondary crossbar in the same cycle (Fig. 3(d)).
  if (!flipped && secondary_usable && any_waiting()) {
    waiting_won = serve_waiting(taken, /*via_primary=*/false);
  }

  fairness_.record(waiting_exists, waiting_won, incoming_won);
}

void DXbarRouter::step_buffered_only(Cycle now) {
  (void)now;
  PortsTaken taken{};

  // 1. Incoming flits that cannot be absorbed must win a port now; with
  //    the primary crossbar dead they traverse the secondary (register
  //    bypass around the full FIFO) or deflect through it.
  Candidates must_win;
  for (int d = 0; d < kNumLinkDirs; ++d) {
    const auto& arrival = in[static_cast<std::size_t>(d)];
    if (!arrival.has_value()) continue;
    if (buffers_[static_cast<std::size_t>(d)].full()) {
      must_win.push_back({Candidate::Kind::Incoming, d, &*arrival});
    }
  }
  sort_by_age(must_win);
  for (const Candidate& c : must_win) {
    if (const auto out =
            claim_route_port(*c.flit, taken, /*ignore_stop=*/true)) {
      cross(*out, *c.flit, /*via_primary=*/false);
    } else {
      ++contention_stalls_;
      deflect(*c.flit, taken, /*via_primary=*/false);
    }
  }
  // Clear the must-win arrivals before step 3 demuxes the rest.
  for (const Candidate& c : must_win) {
    in[static_cast<std::size_t>(c.dir)].reset();
  }

  // 2. FIFO heads and injection drain through the secondary crossbar.
  serve_waiting(taken, /*via_primary=*/false);

  // 3. Remaining arrivals are demuxed into their FIFOs.
  for (int d = 0; d < kNumLinkDirs; ++d) {
    auto& arrival = in[static_cast<std::size_t>(d)];
    if (arrival.has_value()) {
      divert_to_buffer(port_from_index(d), *arrival);
      arrival.reset();
    }
  }
}

void DXbarRouter::step_primary_only(Cycle now) {
  (void)now;
  PortsTaken taken{};

  // The 2x2 steering crossbars admit one flit per input line into the
  // primary crossbar: normally the incoming flit; the FIFO head when the
  // fairness counter has flipped priority (never when the FIFO is full —
  // the arrival must then be the candidate so it can win or deflect).
  const bool waiting_exists = any_waiting();
  const bool prefer_buffer = fairness_.flipped();

  Candidates line;
  std::array<bool, kNumLinkDirs> line_used{};
  for (int d = 0; d < kNumLinkDirs; ++d) {
    auto& arrival = in[static_cast<std::size_t>(d)];
    const auto& buf = buffers_[static_cast<std::size_t>(d)];
    const bool have_buf = !buf.empty();
    if (arrival.has_value() && (!prefer_buffer || !have_buf || buf.full())) {
      // Cleared in the sweep after the line loop, once consumed.
      line.push_back({Candidate::Kind::Incoming, d, &*arrival});
      line_used[static_cast<std::size_t>(d)] = true;
    } else if (have_buf) {
      line.push_back({Candidate::Kind::BufferHead, d, &buf.front()});
      line_used[static_cast<std::size_t>(d)] = true;
      // A displaced arrival joins the FIFO behind the head (the FIFO is
      // known non-full here; FixedQueue pushes never move the head slot,
      // so the BufferHead pointer stays valid).
      if (arrival.has_value()) {
        divert_to_buffer(port_from_index(d), *arrival);
        arrival.reset();
      }
    }
  }
  sort_by_age(line);

  bool waiting_won = false;
  bool incoming_won = false;
  for (const Candidate& c : line) {
    const bool is_head = c.kind == Candidate::Kind::BufferHead;
    const bool escalate =
        is_head &&
        head_wait_[static_cast<std::size_t>(c.dir)] >= env_.cfg->stall_escape_delay;
    const auto out = claim_route_port(*c.flit, taken, escalate);
    if (out) {
      Flit f = *c.flit;
      if (is_head) {
        f = pop_buffer(static_cast<std::size_t>(c.dir));
        env_.energy->buffer_read();
        head_wait_[static_cast<std::size_t>(c.dir)] = 0;
        waiting_won = true;
      } else {
        incoming_won = true;
      }
      cross(*out, f, /*via_primary=*/true);
      continue;
    }
    ++contention_stalls_;
    if (is_head) {
      ++head_wait_[static_cast<std::size_t>(c.dir)];
    } else if (!buffers_[static_cast<std::size_t>(c.dir)].full()) {
      divert_to_buffer(port_from_index(c.dir), *c.flit);
    } else {
      deflect(*c.flit, taken, /*via_primary=*/true);
    }
  }
  for (const Candidate& c : line) {
    if (c.kind == Candidate::Kind::Incoming) {
      in[static_cast<std::size_t>(c.dir)].reset();
    }
  }

  // Injection borrows an idle input line of the primary crossbar.
  bool line_free = false;
  for (int d = 0; d < kNumLinkDirs; ++d) {
    if (!line_used[static_cast<std::size_t>(d)]) line_free = true;
  }
  if (line_free && has_injection()) {
    if (const auto out = claim_route_port(source->front(), taken)) {
      cross(*out, source->pop_front(), /*via_primary=*/true);
      waiting_won = true;
    } else {
      ++contention_stalls_;
    }
  }

  fairness_.record(waiting_exists, waiting_won, incoming_won);
}

Flit DXbarRouter::pop_buffer(std::size_t dir) {
  FixedQueue<Flit>& buf = buffers_[dir];
  const bool was_full = buf.full();
  Flit f = buf.pop();
  --buffered_count_;
  // Counterpart of the transition in divert_to_buffer: a pop from a full
  // FIFO frees a slot, so release the upstream stop signal.  Channel's
  // set_stop latches only the final value of a cycle, so intra-cycle
  // assert/release pairs net out exactly like the old end-of-step scan.
  if (was_full && env_.in_links[dir] != nullptr) {
    env_.in_links[dir]->set_stop(false);
  }
  return f;
}

void DXbarRouter::step(Cycle now) {
  // Flit-free fast path: with no arrival registers occupied, no buffered
  // flits, and nothing to inject, every operating mode is a no-op —
  // candidate sets come out empty, fairness_.record(waiting=false, ...)
  // does not change state, and the stop signals were already deasserted
  // by the step that drained the last buffered flit (a full FIFO implies
  // buffered_count_ > 0, so stop can never be pending while idle).
  if (buffered_count_ == 0 && !has_injection() && !has_arrival()) return;

  // On/off backpressure needs no per-step pass here: stop signals are
  // maintained on FIFO full/non-full transitions inside pop_buffer and
  // divert_to_buffer.
  const RouterFault& fault = env_.faults->at(id_);
  if (!fault.faulty || !env_.faults->manifest(id_, now)) {
    step_normal(now, /*secondary_usable=*/true);
    return;
  }

  if (fault.failed == CrossbarKind::Primary) {
    // With the primary crossbar dead, incoming flits are demuxed into
    // the FIFOs whether or not BIST has fired yet; the secondary keeps
    // the router alive as a plain buffered router.
    step_buffered_only(now);
    return;
  }

  // Secondary crossbar failed.  Until detection the allocator still
  // diverts losers into the FIFOs (the write path is intact) but the
  // FIFOs cannot drain; after detection the steering crossbars feed the
  // primary from the FIFO heads.
  if (env_.faults->detected(id_, now)) {
    step_primary_only(now);
  } else {
    step_normal(now, /*secondary_usable=*/false);
  }
}

int DXbarRouter::occupancy() const { return buffered_count_; }

}  // namespace dxbar
