// Router interface and shared plumbing.
//
// The network drives every router with the same per-cycle protocol:
//   1. the channel sweep delivers arrivals straight into `in[]`
//   2. step(now) runs switch allocation + traversal, consuming `in[]`,
//      pushing departures straight into the outgoing channels and
//      ejections onto its shard's ejection list
//   3. the network drains the shard ejection lists in node order
//
// Routers never talk to each other directly — all coupling goes through
// the Channel objects (flits downstream, credits upstream), which is what
// makes the two-phase cycle free of ordering artifacts.
#pragma once

#include <array>
#include <cassert>
#include <optional>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "common/fixed_queue.hpp"
#include "common/flit.hpp"
#include "common/flit_pool.hpp"
#include "common/small_vec.hpp"
#include "common/stats.hpp"
#include "fault/fault_model.hpp"
#include "power/energy_model.hpp"
#include "routing/deflect.hpp"
#include "routing/route_cache.hpp"
#include "routing/route_table.hpp"
#include "topology/channel.hpp"
#include "topology/mesh.hpp"

namespace dxbar {

/// An input-buffer entry of the buffered designs (Buffered 4/8, VC,
/// DAMQ): the flit and the first cycle it may bid for the switch.
struct TimedFlit {
  Flit flit;
  Cycle ready = 0;

  template <class Self, class Ar>
  static void fields(Self& e, Ar& ar) {
    ar(e.flit, e.ready);
  }
};

/// Source-side queue of flits awaiting injection at one node.  Unbounded:
/// open-loop experiments measure accepted load, and closed-loop workloads
/// throttle themselves via MSHR limits before the queue matters.
/// First pop of a fresh flit stamps its injection cycle and notifies the
/// statistics collector; retransmissions keep their original timestamp.
class InjectionQueue {
 public:
  /// Wired once by the network before simulation starts; `pool` backs
  /// the queued flits so injection never hits the global allocator.
  /// The tally is the owning shard's injection counter — pop_front runs
  /// inside the parallel router phase, so it must not touch the shared
  /// StatsCollector directly.
  void attach(const Cycle* clock, InjectionTally* tally,
              FlitPool* pool) noexcept {
    clock_ = clock;
    tally_ = tally;
    q_.attach_pool(pool);
  }

  [[nodiscard]] bool empty() const noexcept { return q_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return q_.size(); }
  [[nodiscard]] const Flit& front() const { return q_.front(); }

  Flit pop_front() {
    Flit f = q_.pop_front();
    if (f.injected_at == kNotInjected && clock_ != nullptr) {
      f.injected_at = *clock_;
      if (tally_ != nullptr) tally_->on_flit_injected(f, *clock_);
    }
    return f;
  }

  /// Queues a packet's flits `head.seq` .. `head.seq + n - 1` in one slot.
  void push_run(const Flit& head, std::uint16_t n) { q_.push_run(head, n); }
  void push_back(const Flit& f) { q_.push_back(f); }
  /// Retransmissions re-enter at the front so age order is preserved.
  void push_front(const Flit& f) { q_.push_front(f); }

  // Snapshot protocol: queue contents by value (the clock/stats wiring
  // and backing pool are re-established at construction).
  template <class Self, class Ar>
  static void fields(Self& self, Ar& ar) {
    ar(self.q_);
  }

 private:
  PooledFlitDeque q_;
  const Cycle* clock_ = nullptr;
  InjectionTally* tally_ = nullptr;
};

/// An arbitration candidate of the designs that allocate arrivals, FIFO
/// heads and the injection front flit by flit (DXbar, AFC): where the
/// flit sits.  Points into the input register, FIFO head or injection
/// front — all stable for one router step — so building and sorting a
/// candidate set never copies a flit.
struct Candidate {
  enum class Kind { Incoming, BufferHead, Injection };
  Kind kind;
  int dir;  ///< input link index for Incoming/BufferHead; unused otherwise
  const Flit* flit;
};
using Candidates = SmallVec<Candidate, kNumPorts>;

/// Oldest first (Flit::older_than).
inline void sort_by_age(Candidates& v) {
  insertion_sort(v, [](const Candidate& a, const Candidate& b) {
    return a.flit->older_than(*b.flit);
  });
}

/// Receives SCARAB drop notifications; implemented by the network, which
/// routes the NACK over the dedicated circuit-switched network.
class NackSink {
 public:
  virtual ~NackSink() = default;
  virtual void on_drop(const Flit& flit, NodeId at, Cycle now) = 0;
};

/// Everything a router needs from its surroundings, wired once at build.
struct RouterEnv {
  const SimConfig* cfg = nullptr;
  const Mesh* mesh = nullptr;
  EnergyMeter* energy = nullptr;
  const FaultPlan* faults = nullptr;
  /// Fault-aware routing table; non-null when link faults degrade the
  /// topology (see routing/route_table.hpp).
  const RouteTable* route_table = nullptr;
  /// Quadrant route tables for the healthy topology; exactly one of
  /// route_cache and route_table is set.
  const RouteCache* route_cache = nullptr;
  /// Every router's coordinates, indexed by node id, so routing and
  /// deflection locate a destination without a division.
  const Coord* coords = nullptr;
  /// nullptr at mesh edges AND for dead links (link faults).
  std::array<Channel*, kNumLinkDirs> out_links{};
  std::array<Channel*, kNumLinkDirs> in_links{};
  /// The owning shard's ejection list: flits delivered to the local PE
  /// this cycle, appended in node order and drained by the network.
  std::vector<Flit>* ejections = nullptr;
};

class Router {
 public:
  Router(NodeId id, const RouterEnv& env);
  virtual ~Router() = default;

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Arrivals for the current cycle, filled by the network before step().
  std::array<std::optional<Flit>, kNumLinkDirs> in{};

  /// Injection source for this node, wired by the network.
  InjectionQueue* source = nullptr;

  /// Drop notification sink (SCARAB only), wired by the network.
  NackSink* nack_sink = nullptr;

  /// Run one cycle of switch allocation and traversal.
  virtual void step(Cycle now) = 0;

  /// Flits resident inside the router (input buffers); the network uses
  /// this for drain detection.
  [[nodiscard]] virtual int occupancy() const = 0;

  /// Snapshot protocol: serialize/restore the router's mutable state
  /// (buffers, arbiter pointers, wait counters, design counters).  The
  /// defaults cover the stateless bufferless designs (Bless, SCARAB),
  /// which hold nothing between cycles — snapshots are taken at step
  /// boundaries, where in[] and the ejection lists are empty by the
  /// network's cycle protocol.
  virtual void save_state(SnapshotWriter& w) const { (void)w; }
  virtual void load_state(SnapshotReader& r) { (void)r; }

  [[nodiscard]] NodeId id() const noexcept { return id_; }

 protected:
  /// Some input register holds a flit this cycle.
  [[nodiscard]] bool has_arrival() const noexcept {
    for (const auto& a : in) {
      if (a.has_value()) return true;
    }
    return false;
  }

  /// The local PE has a flit waiting to inject.
  [[nodiscard]] bool has_injection() const noexcept {
    return source != nullptr && !source->empty();
  }

  /// True when an output link exists in `d` and has a credit + free slot.
  [[nodiscard]] bool can_send(Direction d) const {
    Channel* ch = env_.out_links[port_index(d)];
    return ch != nullptr && ch->can_send();
  }

  /// Like can_send but ignores on/off stop signals — liveness paths
  /// (deflection escape, stall-escape override) may push into a full
  /// receiver, whose must-win logic absorbs the flit.
  [[nodiscard]] bool can_send_ignoring_stop(Direction d) const {
    Channel* ch = env_.out_links[port_index(d)];
    return ch != nullptr && ch->can_send_ignoring_stop();
  }

  /// `d` can take a flit this cycle: the Local port always, a link when
  /// can_send (`ignore_stop`: can_send_ignoring_stop) holds.
  [[nodiscard]] bool sendable(Direction d, bool ignore_stop) const {
    return d == Direction::Local ||
           (ignore_stop ? can_send_ignoring_stop(d) : can_send(d));
  }

  /// Push a flit onto the outgoing link: bumps the hop count and charges
  /// link energy.  The crossbar-traversal energy is charged by the caller
  /// because which crossbar was used differs per design.
  void send_link(Direction d, const Flit& f) {
    env_.energy->link_traversal();
    Channel& ch = *env_.out_links[port_index(d)];
    ch.send(f);
    ch.bump_staged_hops();
  }

  void eject(const Flit& f) {
    assert(f.dst == id_ && "flit ejected at wrong node");
    env_.ejections->push_back(f);
  }

  /// One crossbar traversal to `out`: the flit ejects on Local and
  /// leaves over the link otherwise.
  void traverse(Direction out, const Flit& f) {
    env_.energy->crossbar_traversal();
    if (out == Direction::Local) {
      eject(f);
    } else {
      send_link(out, f);
    }
  }

  /// Moves this cycle's arrivals, in port order, onto `flits` and clears
  /// the input registers; returns how many there were.
  int take_arrivals(SmallVec<Flit, kNumPorts>& flits) {
    int n = 0;
    for (auto& arrival : in) {
      if (arrival.has_value()) {
        flits.push_back(*arrival);
        arrival.reset();
        ++n;
      }
    }
    return n;
  }

  /// Return a buffer credit to the upstream router on the link the flit
  /// arrived over.
  void return_credit(Direction in_dir) {
    Channel* ch = env_.in_links[port_index(in_dir)];
    if (ch != nullptr) ch->return_credit();
  }

  /// Coordinates of router `n`, read from the network's table.
  [[nodiscard]] Coord coord_of(NodeId n) const { return env_.coords[n]; }

  /// Productive output ports for `dst`: the configured algorithm on a
  /// healthy topology, or the fault-aware table when links are dead.
  /// The healthy path reads the destination's quadrant and a nine-entry
  /// table (see RouteCache).
  [[nodiscard]] RouteSet routes(NodeId dst) const {
    if (env_.route_cache != nullptr) {
      return env_.route_cache->routes(route_key_, dst);
    }
    return env_.route_table->routes(id_, dst);
  }

  /// Every port that makes forward progress toward `dst` (minimal
  /// adaptive set), live-topology aware.  Used by the bufferless
  /// routers, which adapt over all productive ports regardless of the
  /// configured deterministic algorithm.
  [[nodiscard]] RouteSet progressive_dirs(NodeId dst) const {
    if (env_.route_cache != nullptr) {
      return env_.route_cache->minimal(route_key_, dst);
    }
    return env_.route_table->routes(id_, dst);
  }

  /// Route ports of `f` that can take it this cycle (sendable), as a
  /// bitmask over port indices.
  [[nodiscard]] std::uint32_t request_mask(const Flit& f,
                                           bool ignore_stop = false) const {
    std::uint32_t mask = 0;
    for (Direction d : routes(f.dst)) {
      if (sendable(d, ignore_stop)) mask |= 1u << port_index(d);
    }
    return mask;
  }

  /// Output ports already claimed this cycle, by port index.
  using PortsTaken = std::array<bool, kNumPorts>;

  /// Claims the first port in `f`'s route order that is unclaimed and
  /// sendable; nullopt when every route port is taken or blocked.
  std::optional<Direction> claim_route_port(const Flit& f, PortsTaken& taken,
                                            bool ignore_stop = false) const {
    for (Direction d : routes(f.dst)) {
      bool& t = taken[static_cast<std::size_t>(port_index(d))];
      if (t || !sendable(d, ignore_stop)) continue;
      t = true;
      return d;
    }
    return std::nullopt;
  }

  /// The output link exists and is operational.
  [[nodiscard]] bool link_alive(Direction d) const {
    return env_.out_links[port_index(d)] != nullptr;
  }

  /// Live out-degree: existing, operational links.  Link faults kill
  /// both directions of a link, so it equals the live in-degree.
  [[nodiscard]] int live_degree() const noexcept { return live_degree_; }

  /// Deflection preference over the link directions: ports that make
  /// forward progress first (live-topology aware — on a degraded mesh
  /// geometric preference can livelock around obstacles), then the
  /// geometric ranking for the rest.  The ranking's tie-break is salted
  /// by the packet and by `salt`.
  [[nodiscard]] std::array<Direction, kNumLinkDirs> deflection_order(
      const Flit& f, std::uint64_t salt) const {
    const auto geometric =
        deflection_ranking(*env_.mesh, coord_of(id_), coord_of(f.dst),
                           f.packet * 0x9E3779B97F4A7C15ULL + salt);
    if (env_.route_table == nullptr) return geometric;
    const RouteSet prog = progressive_dirs(f.dst);
    std::array<Direction, kNumLinkDirs> out{};
    int k = 0;
    for (Direction d : geometric) {
      if (prog.contains(d)) out[static_cast<std::size_t>(k++)] = d;
    }
    for (Direction d : geometric) {
      if (!prog.contains(d)) out[static_cast<std::size_t>(k++)] = d;
    }
    return out;
  }

  /// Deflection walk: the first link in `f`'s deflection order that is
  /// unclaimed and that `usable` accepts; nullopt when there is none.
  /// The caller claims it.
  template <class Usable>
  [[nodiscard]] std::optional<Direction> deflection_port(
      const Flit& f, std::uint64_t salt, const PortsTaken& taken,
      Usable usable) const {
    for (Direction d : deflection_order(f, salt)) {
      if (!taken[static_cast<std::size_t>(port_index(d))] && usable(d)) {
        return d;
      }
    }
    return std::nullopt;
  }

  /// Counts a deflection on `f` when `d` is not one of its progressive
  /// ports.
  void count_deflection(Flit& f, Direction d) const {
    if (!progressive_dirs(f.dst).contains(d)) ++f.deflections;
  }

  NodeId id_;
  /// This router's RouteCache position key (0 without a cache).
  std::int32_t route_key_;
  RouterEnv env_;

 private:
  int live_degree_ = 0;
};

/// Flits held across a bank of FIFOs.
template <class Bank>
int flits_in(const Bank& bank) {
  int n = 0;
  for (const auto& q : bank) n += static_cast<int>(q.size());
  return n;
}

/// One input FIFO of `depth` slots per link direction.
template <class T>
std::array<FixedQueue<T>, kNumLinkDirs> make_fifo_bank(int depth) {
  return [depth]<std::size_t... I>(std::index_sequence<I...>) {
    return std::array<FixedQueue<T>, kNumLinkDirs>{
        {((void)I, FixedQueue<T>(static_cast<std::size_t>(depth)))...}};
  }(std::make_index_sequence<kNumLinkDirs>{});
}

}  // namespace dxbar
