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
#include <vector>

#include "common/config.hpp"
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

  /// The output link exists and is operational.
  [[nodiscard]] bool link_alive(Direction d) const {
    return env_.out_links[port_index(d)] != nullptr;
  }

  /// Deflection preference over the link directions: ports that make
  /// forward progress first (live-topology aware — on a degraded mesh
  /// geometric preference can livelock around obstacles), then the
  /// geometric ranking for the rest.
  [[nodiscard]] std::array<Direction, kNumLinkDirs> deflection_order(
      const Flit& f, std::uint64_t salt) const {
    const auto geometric =
        deflection_ranking(*env_.mesh, coord_of(id_), coord_of(f.dst), salt);
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

  NodeId id_;
  /// This router's RouteCache position key (0 without a cache).
  std::int32_t route_key_;
  RouterEnv env_;
};

}  // namespace dxbar
