// The network: routers, channels, injection queues, packet reassembly,
// SCARAB retransmission control and the per-cycle simulation loop.
#pragma once

#include <memory>
#include <vector>

#include "common/config.hpp"
#include "common/flit_pool.hpp"
#include "common/packet_map.hpp"
#include "common/stats.hpp"
#include "fault/fault_model.hpp"
#include "fault/link_faults.hpp"
#include "routing/route_cache.hpp"
#include "routing/route_table.hpp"
#include "power/energy_model.hpp"
#include "router/factory.hpp"
#include "sim/nack_network.hpp"
#include "sim/shard_pool.hpp"
#include "topology/mesh.hpp"
#include "topology/partition.hpp"
#include "traffic/traffic_gen.hpp"

namespace dxbar {

/// Optional observer of network events, for debugging and journey
/// visualisation (`examples/packet_journey`).  All callbacks fire inside
/// Network::step; keep them cheap.
class EventTracer {
 public:
  virtual ~EventTracer() = default;
  virtual void on_packet_created(PacketId id, NodeId src, NodeId dst,
                                 int length, Cycle now) {
    (void)id; (void)src; (void)dst; (void)length; (void)now;
  }
  /// A flit arrived at a router's input register.
  virtual void on_flit_hop(const Flit& f, NodeId at, Cycle now) {
    (void)f; (void)at; (void)now;
  }
  virtual void on_flit_ejected(const Flit& f, Cycle now) {
    (void)f; (void)now;
  }
  /// SCARAB only: the flit was dropped and will be NACKed.
  virtual void on_flit_dropped(const Flit& f, NodeId at, Cycle now) {
    (void)f; (void)at; (void)now;
  }
  virtual void on_packet_completed(const PacketRecord& rec, Cycle now) {
    (void)rec; (void)now;
  }
};

class Network final : public Injector {
 public:
  /// Builds the mesh of routers for `cfg`; the fault plan defaults to
  /// the one derived from cfg.fault_fraction / cfg.seed, the partition
  /// to MeshPartition::rows(mesh, cfg.shards).  Every variant simulates
  /// bit-identically — the partition only chooses which thread executes
  /// which rows (see DESIGN.md §10).
  explicit Network(const SimConfig& cfg);
  Network(const SimConfig& cfg, FaultPlan plan);
  /// Explicit partition (the fuzz tests drive arbitrary cut lines).
  Network(const SimConfig& cfg, const MeshPartition& part);
  Network(const SimConfig& cfg, FaultPlan plan, const MeshPartition& part);
  ~Network() override;

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// The workload drives injection; must outlive the network's use.
  void set_workload(WorkloadModel* w) { workload_ = w; }
  [[nodiscard]] WorkloadModel* workload() const noexcept { return workload_; }

  /// Optional event observer (may be null to detach).
  void set_tracer(EventTracer* t) { tracer_ = t; }

  /// Advance one cycle: channel movement, arrivals, injection, router
  /// switching, ejection/reassembly, NACK deliveries.
  void step();

  [[nodiscard]] Cycle now() const noexcept { return now_; }

  /// No flit anywhere in the system (queues, routers, links, NACKs).
  /// O(1): every created flit is delivered exactly once, so the
  /// created/delivered counters balance exactly when nothing is in
  /// flight (drops re-enter the source queue without re-counting).
  [[nodiscard]] bool idle() const;

  // --- Injector -------------------------------------------------------
  PacketId inject_packet(NodeId src, NodeId dst, int length,
                         Cycle now) override;
  PacketId inject_packet(NodeId src, NodeId dst, int length, Cycle now,
                         MsgClass cls) override;

  // --- component access -------------------------------------------------
  [[nodiscard]] const Mesh& mesh() const noexcept { return mesh_; }
  [[nodiscard]] const MeshPartition& partition() const noexcept {
    return part_;
  }
  [[nodiscard]] const SimConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] StatsCollector& stats() noexcept { return stats_; }
  [[nodiscard]] EnergyMeter& energy() noexcept { return energy_; }
  [[nodiscard]] Router& router(NodeId n) { return *routers_[n]; }
  /// The channel of the directed link (node, d), or nullptr where no
  /// link exists (mesh edge / dead link).
  [[nodiscard]] const Channel* link_channel(NodeId node,
                                            Direction d) const noexcept {
    const std::int32_t slot = link_slot_[static_cast<std::size_t>(
        link_index(node, port_index(d)))];
    return slot < 0 ? nullptr : &channels_[static_cast<std::size_t>(slot)];
  }
  [[nodiscard]] const FaultPlan& faults() const noexcept { return faults_; }
  [[nodiscard]] const LinkFaultPlan& link_faults() const noexcept {
    return link_faults_;
  }
  /// Slots currently live across the per-shard arenas backing source
  /// queues and SCARAB staging (one per queued run of flits); a drained
  /// network must report 0.
  [[nodiscard]] std::size_t flit_pool_live() const noexcept {
    std::size_t live = 0;
    for (const auto& s : shards_) live += s->flit_pool.live();
    return live;
  }
  /// Which routing structure this network built: the quadrant tables
  /// on a healthy topology of any size, the BFS table under link faults.
  [[nodiscard]] bool using_route_cache() const noexcept {
    return route_cache_ != nullptr;
  }
  [[nodiscard]] bool using_route_table() const noexcept {
    return route_table_ != nullptr;
  }

  // --- snapshot/restore -------------------------------------------------
  /// Serializes all mutable simulation state as snapshot sections.  Must
  /// be called at a step boundary (between step() calls), where the
  /// per-cycle transients — router input registers, ejection lists,
  /// channel arrival registers — are empty by the cycle protocol.
  /// The workload is NOT included (it is external; see
  /// WorkloadModel::save_state).
  void save(SnapshotWriter& w) const;

  /// Restores state saved by save() into this network.  The target must
  /// have been constructed from a structurally identical configuration
  /// (same mesh, design, buffer sizing, fault plans, seed, stats
  /// windows); only workload-level fields (offered_load, warmup_load,
  /// pattern, drain cap) may differ.  Throws SnapshotError on
  /// fingerprint mismatch or a corrupt stream.
  void load(SnapshotReader& r);

  /// Convenience wrappers: a complete standalone snapshot byte stream.
  [[nodiscard]] std::vector<std::uint8_t> snapshot() const;
  void restore(const std::vector<std::uint8_t>& bytes);

  // --- global accounting (whole run, not just the window) ---------------
  [[nodiscard]] std::uint64_t flits_created() const noexcept {
    return flits_created_;
  }
  [[nodiscard]] std::uint64_t flits_delivered() const noexcept {
    return flits_delivered_;
  }
  [[nodiscard]] std::uint64_t packets_created() const noexcept {
    return packets_created_;
  }
  [[nodiscard]] std::uint64_t packets_delivered() const noexcept {
    return packets_delivered_;
  }
  [[nodiscard]] std::uint64_t flits_dropped() const noexcept {
    return flits_dropped_;
  }

  /// Per-link flit counts since construction (utilization analysis).
  struct LinkUsage {
    LinkId link;
    std::uint64_t flits = 0;
  };
  [[nodiscard]] std::vector<LinkUsage> link_usage() const;

 private:
  /// Endpoints of channels_[i].  build() classifies boundary channels
  /// and wires each channel's delivery register from it; the sweep reads
  /// it only to name the hop for a tracer.
  struct ChannelMeta {
    NodeId src_node = kInvalidNode;
    NodeId dst_node = kInvalidNode;
    int dst_port = 0;
  };

  /// A SCARAB drop recorded during the parallel router phase.  Drops
  /// mutate shared state (drop counter, NACK network, tracer), so each
  /// shard stages its own and the network commits them serially in
  /// node order — which is exactly the order the single-threaded loop
  /// produced them in, because shard node ranges are contiguous and
  /// ascending.
  struct StagedDrop {
    Flit flit;
    NodeId at = kInvalidNode;
  };

  /// Everything one worker thread mutates during the parallel phases.
  /// Cache-line aligned so neighbouring shards never false-share; the
  /// whole struct is private to its thread between barriers, and the
  /// serial commit step folds it into the shared aggregates each cycle,
  /// leaving observable state identical to the single-threaded run.
  struct alignas(64) ShardState final : NackSink {
    ShardState(const EnergyParams& params, Cycle window_start,
               Cycle window_end)
        : energy(params), tally(window_start, window_end) {}

    /// Slots (into channels_) this shard must advance; boundary
    /// channels are pinned here permanently.
    std::vector<std::uint32_t> active_channels;
    /// Arena backing this shard's source queues and SCARAB staging.
    FlitPool flit_pool;
    /// Always-enabled event counter; the fold into the network meter is
    /// gated by that meter's enable flag (constant within a cycle, so
    /// gating at the fold equals gating at the event).
    EnergyMeter energy;
    InjectionTally tally;
    std::vector<StagedDrop> drops;
    /// Flits this shard's routers ejected this cycle, in node order
    /// (routers step in ascending node order and append as they eject).
    std::vector<Flit> ejections;

    // NackSink for this shard's routers: stage, commit later.
    void on_drop(const Flit& flit, NodeId at, Cycle now) override {
      (void)now;
      drops.push_back({flit, at});
    }
  };

  [[nodiscard]] int link_index(NodeId node, int dir) const noexcept {
    return static_cast<int>(node) * kNumLinkDirs + dir;
  }

  /// The mutable link_channel(node, dir).
  [[nodiscard]] Channel* channel_at(NodeId node, int dir) noexcept {
    return const_cast<Channel*>(link_channel(node, port_from_index(dir)));
  }

  void build();
  /// Runs fn(s) for every shard — on the pool when one exists and no
  /// tracer is attached, inline (sequentially, same per-shard work)
  /// otherwise.  Tracers get the inline path so their callbacks fire on
  /// one thread; shard-count invariance makes that run identical.  Only
  /// the order of one cycle's hop callbacks follows the partition (it is
  /// the active-channel list order); ejections keep node order.
  template <typename F>
  void run_sharded(F&& fn);
  void sweep_channels(int shard);
  void step_routers_shard(int shard);
  /// Serially folds per-shard effects (staged drops, energy counts,
  /// injection tallies) into the shared aggregates, in shard order.
  void commit_shard_effects();
  /// Delivery and reassembly of the shards' ejection lists, in shard
  /// order — which is node order, since shards are ascending node ranges.
  void handle_ejections();
  void scarab_release_staging();
  void scarab_deliver_nacks();
  /// Slow structural scan backing the idle() counter identity in debug
  /// builds.
  [[nodiscard]] bool idle_by_scan() const;
  /// The snapshot sections, walked by save() and load() alike
  /// (network_snapshot.cpp).
  template <class Self, class Ar>
  static void fields(Self& self, Ar& ar);

  SimConfig cfg_;
  Mesh mesh_;
  MeshPartition part_;
  EnergyMeter energy_;
  FaultPlan faults_;
  LinkFaultPlan link_faults_;
  std::unique_ptr<RouteTable> route_table_;  ///< set iff link faults exist
  std::unique_ptr<RouteCache> route_cache_;  ///< set iff topology healthy
  std::vector<Coord> coords_;  ///< node id -> coordinates, for the routers
  StatsCollector stats_;
  WorkloadModel* workload_ = nullptr;
  EventTracer* tracer_ = nullptr;

  /// All existing channels, contiguous in (node, dir) order; the
  /// per-cycle sweep is one pass over the per-shard slot lists.  Each
  /// channel belongs to the shard of its destination router; slots with
  /// in-flight flits / pending credits / stop flips self-register on
  /// their owner's list and are delisted when quiescent (boundary
  /// channels stay pinned).  Capacity is reserved up front and each
  /// channel registers at most once, so steady-state maintenance never
  /// allocates.
  std::vector<Channel> channels_;
  std::vector<ChannelMeta> channel_meta_;  ///< parallel to channels_
  /// link_index(node, dir) -> slot in channels_, or -1 when absent.
  std::vector<std::int32_t> link_slot_;

  std::vector<std::unique_ptr<Router>> routers_;
  /// The design's concrete stepper (router/factory.hpp), set at build.
  RouterStepper step_routers_ = nullptr;
  /// Per-shard mutable state; size part_.shards(), heap-allocated so the
  /// alignas(64) is honoured and addresses stay stable.
  std::vector<std::unique_ptr<ShardState>> shards_;
  /// Worker threads (null when single-sharded).
  std::unique_ptr<ShardPool> pool_;
  std::vector<InjectionQueue> sources_;

  /// Packet reassembly at the destination MSHRs.
  struct Assembly {
    int received = 0;
    PacketRecord rec;

    template <class Self, class Ar>
    static void fields(Self& a, Ar& ar) {
      ar(a.received, a.rec);
    }
  };
  PacketMap<Assembly> assembly_;

  // SCARAB retransmission control, run when the design's control block
  // is the NACK circuit: freshly created flits wait in staging until the
  // source's retransmit buffer has room, and drops return over nacks_.
  const bool nack_control_ =
      design_row(cfg_.design).control == ControlBlock::Nack;
  std::vector<PooledFlitDeque> scarab_staging_;
  std::vector<int> scarab_outstanding_;
  int scarab_capacity_flits_ = 0;
  NackNetwork nacks_;

  Cycle now_ = 0;
  PacketId next_packet_ = 1;
  std::uint64_t flits_created_ = 0;
  std::uint64_t flits_delivered_ = 0;
  std::uint64_t packets_created_ = 0;
  std::uint64_t packets_delivered_ = 0;
  std::uint64_t flits_dropped_ = 0;
};

}  // namespace dxbar
