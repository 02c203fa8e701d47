// SCARAB's dedicated circuit-switched NACK network.
//
// When a router drops a flit it opens a pre-reserved 1-bit path back to
// the source; we model the delivery as an event arriving after the
// Manhattan distance plus one setup cycle, and charge the per-hop NACK
// energy.  The data network never carries NACKs.
#pragma once

#include <algorithm>
#include <queue>
#include <vector>

#include "common/flit.hpp"
#include "power/energy_model.hpp"
#include "snapshot/snapshot.hpp"
#include "topology/mesh.hpp"

namespace dxbar {

class NackNetwork {
 public:
  /// Schedule the NACK for a flit dropped at `at` toward `flit.src`.
  /// The source's NACK wire delivers one notification per cycle, so
  /// bursts of drops against the same source serialize — the modest
  /// contention model the dedicated 1-bit network actually has.
  void schedule(const Flit& flit, NodeId at, Cycle now, const Mesh& mesh,
                EnergyMeter& energy) {
    const int hops = mesh.distance(at, flit.src);
    energy.nack_hops(hops);
    Cycle deliver = now + static_cast<Cycle>(hops) + 1;
    if (flit.src < wire_free_.size()) {
      deliver = std::max(deliver, wire_free_[flit.src]);
      wire_free_[flit.src] = deliver + 1;
    }
    q_.push(Event{deliver, seq_++, flit});
  }

  /// Size the per-source NACK wires; called once by the network.
  void set_num_nodes(int n) {
    wire_free_.assign(static_cast<std::size_t>(n), 0);
  }

  /// All NACKs arriving at or before `now` (their flits must be
  /// retransmitted by the source).
  std::vector<Flit> deliveries(Cycle now) {
    std::vector<Flit> out;
    while (!q_.empty() && q_.top().deliver <= now) {
      out.push_back(q_.top().flit);
      q_.pop();
    }
    return out;
  }

  [[nodiscard]] bool empty() const noexcept { return q_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return q_.size(); }

  // ---- snapshot protocol ----------------------------------------------
  //
  // Events are written in heap-pop order (deliver, then seq), which is
  // exactly the order the restored queue re-derives, so delivery order
  // is bit-stable across a round trip.

  void save(SnapshotWriter& w) const {
    w(std::uint64_t{q_.size()});
    for (auto copy = q_; !copy.empty(); copy.pop()) w(copy.top());
    w.list(wire_free_, 8);
    w(seq_);
  }

  void load(SnapshotReader& r) {
    q_ = {};
    const std::uint64_t n = r.count(16);
    for (std::uint64_t i = 0; i < n; ++i) {
      Event e{};
      r(e);
      q_.push(e);
    }
    r.list(wire_free_, 8);
    r(seq_);
  }

 private:
  struct Event {
    Cycle deliver;
    std::uint64_t seq;  ///< FIFO order among same-cycle deliveries
    Flit flit;

    template <class Self, class Ar>
    static void fields(Self& e, Ar& ar) {
      ar(e.deliver, e.seq, e.flit);
    }

    [[nodiscard]] bool operator>(const Event& o) const noexcept {
      if (deliver != o.deliver) return deliver > o.deliver;
      return seq > o.seq;
    }
  };

  std::priority_queue<Event, std::vector<Event>, std::greater<>> q_;
  std::vector<Cycle> wire_free_;  ///< per-source earliest next delivery
  std::uint64_t seq_ = 0;
};

}  // namespace dxbar
