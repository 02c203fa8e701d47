#include "router/buffered_router.hpp"

#include <cassert>

namespace dxbar {

BufferedRouter::BufferedRouter(NodeId id, const RouterEnv& env,
                               int lanes_per_input)
    : Router(id, env),
      lanes_per_input_(lanes_per_input),
      depth_(env.cfg->buffer_depth),
      allocator_(kNumPorts, kNumPorts) {
  assert(lanes_per_input >= 1 && lanes_per_input <= 2);
  lanes_.reserve(static_cast<std::size_t>(kNumLinkDirs * lanes_per_input_));
  for (int i = 0; i < kNumLinkDirs * lanes_per_input_; ++i) {
    lanes_.emplace_back(static_cast<std::size_t>(depth_));
  }
}

void BufferedRouter::step(Cycle now) {
  // Idle early-out: with no arrival, no buffered flit and no injection,
  // every request below is zero, so the allocator grants nothing and
  // moves no arbiter pointer, and there is nothing to write.
  assert(held_ == occupancy());
  if (held_ == 0 && !has_injection() && !has_arrival()) return;

  // The crossbar is 5x5: each input *port* forwards at most one flit per
  // cycle regardless of how many lanes buffer behind it.  With two lanes
  // (Buffered 8) either eligible head may be the one served, which is
  // what removes head-of-line blocking relative to Buffered 4.
  const int inj_input = kNumLinkDirs;  // allocator input index of the PE port

  // ---- per-input-port requests: union over eligible lane heads --------
  std::array<std::uint32_t, kNumPorts> requests{};
  std::array<std::array<std::uint32_t, 2>, kNumLinkDirs> lane_masks{};
  for (int d = 0; d < kNumLinkDirs; ++d) {
    for (int k = 0; k < lanes_per_input_; ++k) {
      const auto& q = lanes_[static_cast<std::size_t>(lane(d, k))];
      if (!q.empty() && now >= q.front().ready) {
        const std::uint32_t m = request_mask(q.front().flit);
        lane_masks[static_cast<std::size_t>(d)][static_cast<std::size_t>(k)] = m;
        requests[static_cast<std::size_t>(d)] |= m;
      }
    }
  }
  if (has_injection()) {
    requests[static_cast<std::size_t>(inj_input)] =
        request_mask(source->front());
  }

  // ---- allocate and traverse ------------------------------------------
  const std::array<int, kNumPorts> grants = allocator_.allocate(requests);
  for (int i = 0; i < kNumPorts; ++i) {
    const int out = grants[static_cast<std::size_t>(i)];
    if (out < 0) continue;

    Flit f;
    if (i == inj_input) {
      f = source->pop_front();
    } else {
      // Serve the oldest eligible lane head that requested this output.
      int pick = -1;
      for (int k = 0; k < lanes_per_input_; ++k) {
        if (!(lane_masks[static_cast<std::size_t>(i)]
                        [static_cast<std::size_t>(k)] &
              (1u << out))) {
          continue;
        }
        const auto& q = lanes_[static_cast<std::size_t>(lane(i, k))];
        if (pick < 0 ||
            q.front().flit.older_than(
                lanes_[static_cast<std::size_t>(lane(i, pick))].front().flit)) {
          pick = k;
        }
      }
      assert(pick >= 0 && "granted output must match a requesting head");
      f = lanes_[static_cast<std::size_t>(lane(i, pick))].pop().flit;
      --held_;
      env_.energy->buffer_read();
      return_credit(port_from_index(i));
    }
    traverse(port_from_index(out), f);
  }

  // ---- buffer-write stage for this cycle's arrivals --------------------
  for (int d = 0; d < kNumLinkDirs; ++d) {
    auto& arrival = in[static_cast<std::size_t>(d)];
    if (!arrival.has_value()) continue;
    // Pick the emptier sub-queue (Buffered 8's HoL-free organisation);
    // with one lane per input this is simply that lane.
    int best = lane(d, 0);
    for (int k = 1; k < lanes_per_input_; ++k) {
      if (lanes_[static_cast<std::size_t>(lane(d, k))].size() <
          lanes_[static_cast<std::size_t>(best)].size()) {
        best = lane(d, k);
      }
    }
    const bool ok = lanes_[static_cast<std::size_t>(best)].push(
        TimedFlit{*arrival, now + 1});
    assert(ok && "credit flow control must prevent buffer overflow");
    (void)ok;
    ++held_;
    env_.energy->buffer_write();
    arrival.reset();
  }
}

int BufferedRouter::occupancy() const { return flits_in(lanes_); }

}  // namespace dxbar
