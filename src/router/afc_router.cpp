#include "router/afc_router.hpp"

#include <cassert>

namespace dxbar {

AfcRouter::AfcRouter(NodeId id, const RouterEnv& env)
    : Router(id, env),
      buffers_(make_fifo_bank<Flit>(env.cfg->buffer_depth)) {}

void AfcRouter::route_or_deflect(Flit f, PortsTaken& taken) {
  const auto out = deflection_port(
      f, f.hops, taken, [this](Direction d) { return can_send(d); });
  assert(out && "deflection must always find a port");
  taken[static_cast<std::size_t>(port_index(*out))] = true;
  count_deflection(f, *out);
  traverse(*out, f);
}

void AfcRouter::step_bufferless(Cycle now) {
  (void)now;
  SmallVec<Flit, kNumPorts> flits;
  const int incoming = take_arrivals(flits);
  if (has_injection() && incoming < live_degree()) {
    flits.push_back(source->pop_front());
  }
  if (flits.empty()) return;

  insertion_sort(flits,
                 [](const Flit& a, const Flit& b) { return a.older_than(b); });

  PortsTaken taken{};
  bool local_taken = false;
  for (Flit& f : flits) {
    if (f.dst == id_ && !local_taken) {
      local_taken = true;
      traverse(Direction::Local, f);
      continue;
    }
    route_or_deflect(f, taken);
  }
}

void AfcRouter::step_buffered(Cycle now) {
  (void)now;
  PortsTaken taken{};

  // 1. Arrivals that cannot be absorbed must leave now (mode-transition
  //    safety: AFC's lossless fallback is deflection).
  Candidates must_win;
  for (int d = 0; d < kNumLinkDirs; ++d) {
    const auto& arrival = in[static_cast<std::size_t>(d)];
    if (arrival.has_value() && buffers_[static_cast<std::size_t>(d)].full()) {
      must_win.push_back({Candidate::Kind::Incoming, d, &*arrival});
    }
  }
  sort_by_age(must_win);
  for (const Candidate& c : must_win) {
    if (const auto out = claim_route_port(*c.flit, taken)) {
      traverse(*out, *c.flit);
    } else {
      route_or_deflect(*c.flit, taken);
    }
  }
  // Clear the must-win arrivals before step 3 buffers the rest.
  for (const Candidate& c : must_win) {
    in[static_cast<std::size_t>(c.dir)].reset();
  }

  // 2. FIFO heads + injection, oldest first, productive ports only.
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
  sort_by_age(waiting);
  for (const Candidate& c : waiting) {
    const auto out = claim_route_port(*c.flit, taken);
    if (!out) continue;
    Flit f;
    if (c.kind == Candidate::Kind::BufferHead) {
      f = buffers_[static_cast<std::size_t>(c.dir)].pop();
      --held_;
      env_.energy->buffer_read();
    } else {
      f = source->pop_front();
    }
    traverse(*out, f);
  }

  // 3. Remaining arrivals are buffered (space checked in step 1).
  for (int d = 0; d < kNumLinkDirs; ++d) {
    auto& arrival = in[static_cast<std::size_t>(d)];
    if (!arrival.has_value()) continue;
    const bool ok = buffers_[static_cast<std::size_t>(d)].push(*arrival);
    assert(ok);
    (void)ok;
    ++held_;
    env_.energy->buffer_write();
    arrival.reset();
  }
}

void AfcRouter::step(Cycle now) {
  assert(held_ == occupancy());

  // Mode control from the smoothed arrival rate.
  int arrivals = 0;
  for (const auto& a : in) {
    if (a.has_value()) ++arrivals;
  }
  arrival_ema_ =
      arrival_ema_ * (1.0 - kEmaAlpha) + static_cast<double>(arrivals) * kEmaAlpha;

  if (!buffered_mode_ && arrival_ema_ > kBufferOn) {
    buffered_mode_ = true;
    ++mode_switches_;
  } else if (buffered_mode_ && arrival_ema_ < kBufferOff && held_ == 0) {
    buffered_mode_ = false;
    ++mode_switches_;
  }

  // Idle early-out: the mode control above is the only state an empty
  // cycle moves; both step paths would find no candidate.
  if (held_ == 0 && arrivals == 0 && !has_injection()) return;

  if (buffered_mode_) {
    step_buffered(now);
  } else {
    step_bufferless(now);
  }
}

int AfcRouter::occupancy() const { return flits_in(buffers_); }

}  // namespace dxbar
