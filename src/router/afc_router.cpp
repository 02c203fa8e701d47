#include "router/afc_router.hpp"

#include <cassert>

#include "routing/deflect.hpp"

namespace dxbar {
namespace {

struct Candidate {
  enum class Kind { Incoming, BufferHead, Injection };
  Kind kind;
  int dir;
  Flit flit;
};

void sort_by_age(SmallVec<Candidate, kNumPorts>& v) {
  insertion_sort(v, [](const Candidate& a, const Candidate& b) {
    return a.flit.older_than(b.flit);
  });
}

}  // namespace

AfcRouter::AfcRouter(NodeId id, const RouterEnv& env)
    : Router(id, env),
      buffers_{FixedQueue<Flit>(static_cast<std::size_t>(env.cfg->buffer_depth)),
               FixedQueue<Flit>(static_cast<std::size_t>(env.cfg->buffer_depth)),
               FixedQueue<Flit>(static_cast<std::size_t>(env.cfg->buffer_depth)),
               FixedQueue<Flit>(static_cast<std::size_t>(env.cfg->buffer_depth))} {
  degree_ = 0;
  for (Direction d : kLinkDirs) {
    if (env_.out_links[port_index(d)] != nullptr) ++degree_;
  }
}

std::optional<Direction> AfcRouter::pick_output(const Flit& f,
                                                AllocState& st) {
  for (Direction d : routes(f.dst)) {
    const int i = port_index(d);
    if (st.taken[static_cast<std::size_t>(i)]) continue;
    if (d != Direction::Local && !can_send(d)) continue;
    st.taken[static_cast<std::size_t>(i)] = true;
    return d;
  }
  return std::nullopt;
}

void AfcRouter::route_or_deflect(Flit f, AllocState& st) {
  const auto ranking =
      deflection_order(f, f.packet * 0x9E3779B97F4A7C15ULL + f.hops);
  for (Direction d : ranking) {
    const int i = port_index(d);
    if (st.taken[static_cast<std::size_t>(i)]) continue;
    if (!link_alive(d) || !can_send(d)) continue;
    st.taken[static_cast<std::size_t>(i)] = true;
    if (!progressive_dirs(f.dst).contains(d)) ++f.deflections;
    env_.energy->crossbar_traversal();
    send_link(d, f);
    return;
  }
  assert(false && "deflection must always find a port");
}

void AfcRouter::step_bufferless(Cycle now) {
  (void)now;
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
  if (has_injection() && incoming < degree_) {
    flits.push_back(source->pop_front());
  }
  if (flits.empty()) return;

  insertion_sort(flits,
                 [](const Flit& a, const Flit& b) { return a.older_than(b); });

  AllocState st;
  bool local_taken = false;
  for (Flit& f : flits) {
    if (f.dst == id_ && !local_taken) {
      local_taken = true;
      env_.energy->crossbar_traversal();
      eject(f);
      continue;
    }
    route_or_deflect(f, st);
  }
}

void AfcRouter::step_buffered(Cycle now) {
  (void)now;
  AllocState st;

  // 1. Arrivals that cannot be absorbed must leave now (mode-transition
  //    safety: AFC's lossless fallback is deflection).
  SmallVec<Candidate, kNumPorts> must_win;
  for (int d = 0; d < kNumLinkDirs; ++d) {
    auto& arrival = in[static_cast<std::size_t>(d)];
    if (arrival.has_value() && buffers_[static_cast<std::size_t>(d)].full()) {
      must_win.push_back({Candidate::Kind::Incoming, d, *arrival});
      arrival.reset();
    }
  }
  sort_by_age(must_win);
  for (const Candidate& c : must_win) {
    if (const auto out = pick_output(c.flit, st)) {
      env_.energy->crossbar_traversal();
      if (*out == Direction::Local) {
        eject(c.flit);
      } else {
        send_link(*out, c.flit);
      }
    } else {
      route_or_deflect(c.flit, st);
    }
  }

  // 2. FIFO heads + injection, oldest first, productive ports only.
  SmallVec<Candidate, kNumPorts> waiting;
  for (int d = 0; d < kNumLinkDirs; ++d) {
    if (!buffers_[static_cast<std::size_t>(d)].empty()) {
      waiting.push_back({Candidate::Kind::BufferHead, d,
                         buffers_[static_cast<std::size_t>(d)].front()});
    }
  }
  if (has_injection()) {
    waiting.push_back({Candidate::Kind::Injection, -1, source->front()});
  }
  sort_by_age(waiting);
  for (const Candidate& c : waiting) {
    const auto out = pick_output(c.flit, st);
    if (!out) continue;
    Flit f;
    if (c.kind == Candidate::Kind::BufferHead) {
      f = buffers_[static_cast<std::size_t>(c.dir)].pop();
      --held_;
      env_.energy->buffer_read();
    } else {
      f = source->pop_front();
    }
    env_.energy->crossbar_traversal();
    if (*out == Direction::Local) {
      eject(f);
    } else {
      send_link(*out, f);
    }
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

int AfcRouter::occupancy() const {
  int n = 0;
  for (const auto& b : buffers_) n += static_cast<int>(b.size());
  return n;
}

}  // namespace dxbar
