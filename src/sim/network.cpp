#include "sim/network.hpp"

#include <algorithm>
#include <cassert>

#include "router/afc_router.hpp"
#include "router/bless_router.hpp"
#include "router/buffered_router.hpp"
#include "router/damq_router.hpp"
#include "router/dxbar_router.hpp"
#include "router/minbd_router.hpp"
#include "router/scarab_router.hpp"
#include "router/unified_router.hpp"
#include "router/vc_router.hpp"

namespace dxbar {

Network::Network(const SimConfig& cfg)
    : Network(cfg, FaultPlan(cfg.num_nodes(), cfg.fault_fraction, cfg.seed,
                             cfg.fault_onset_spread,
                             cfg.fault_detect_delay)) {}

Network::Network(const SimConfig& cfg, FaultPlan plan)
    : Network(cfg, std::move(plan),
              MeshPartition::rows(
                  Mesh(cfg.mesh_width, cfg.mesh_height, cfg.torus),
                  cfg.shards)) {}

Network::Network(const SimConfig& cfg, const MeshPartition& part)
    : Network(cfg,
              FaultPlan(cfg.num_nodes(), cfg.fault_fraction, cfg.seed,
                        cfg.fault_onset_spread, cfg.fault_detect_delay),
              part) {}

Network::Network(const SimConfig& cfg, FaultPlan plan,
                 const MeshPartition& part)
    : cfg_(cfg),
      mesh_(cfg.mesh_width, cfg.mesh_height, cfg.torus),
      part_(part),
      energy_(derive_energy_params(cfg)),
      faults_(std::move(plan)),
      link_faults_(mesh_, cfg.link_fault_fraction, cfg.seed),
      stats_(cfg.warmup_cycles, cfg.warmup_cycles + cfg.measure_cycles,
             cfg.num_nodes()) {
  assert(part_.width() == mesh_.width() &&
         part_.height() == mesh_.height() && "partition/mesh mismatch");
  assert(cfg_.validate().empty() && "invalid SimConfig");
  if (link_faults_.any()) {
    route_table_ = std::make_unique<RouteTable>(
        mesh_, [this](NodeId n, Direction d) {
          return link_faults_.alive(n, d);
        });
  } else if (RouteCache::worthwhile(mesh_)) {
    route_cache_ = std::make_unique<RouteCache>(cfg_.routing, mesh_);
  }
  build();
}

Network::~Network() = default;

void Network::build() {
  const int n = mesh_.num_nodes();
  const int credits = link_credits_for(cfg_.design, cfg_.buffer_depth);

  // Channels: one per existing directed link, packed contiguously in
  // (node, dir) order.  channel_at(a, d) carries flits from router a's
  // output d to the neighbour's opposite input port.  The vector is
  // fully populated before any Channel* is handed out, so the pointers
  // stay stable for the network's lifetime.
  link_slot_.assign(static_cast<std::size_t>(n) * kNumLinkDirs, -1);
  for (NodeId a = 0; a < static_cast<NodeId>(n); ++a) {
    for (Direction d : kLinkDirs) {
      const auto nb = mesh_.neighbor(a, d);
      if (!nb) continue;
      if (!link_faults_.alive(a, d)) continue;  // dead link: no channel
      link_slot_[static_cast<std::size_t>(link_index(a, port_index(d)))] =
          static_cast<std::int32_t>(channels_.size());
      if (cfg_.design == RouterDesign::BufferedVC) {
        channels_.emplace_back(cfg_.num_vcs,
                               cfg_.buffer_depth / cfg_.num_vcs);
      } else {
        channels_.emplace_back(credits);
      }
      channel_meta_.push_back(
          {a, *nb, port_index(opposite(d))});
    }
  }

  // Per-shard state.  Heap-allocated so each block honours alignas(64)
  // and keeps a stable address for the wiring below.
  const int num_shards = part_.shards();
  shards_.reserve(static_cast<std::size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    shards_.push_back(std::make_unique<ShardState>(
        energy_.params(), cfg_.warmup_cycles,
        cfg_.warmup_cycles + cfg_.measure_cycles));
    // Pre-size the shard's flit arena so steady-state injection recycles
    // slots instead of growing (growth remains correct, just amortized).
    shards_.back()->flit_pool.reserve(
        static_cast<std::size_t>(part_.node_end(s) - part_.node_begin(s)) *
        16);
    shards_.back()->active_channels.reserve(channels_.size());
  }
  if (num_shards > 1) pool_ = std::make_unique<ShardPool>(num_shards);

  // A channel belongs to the shard of its destination router: that shard
  // advances it and delivers its arrival.  Interior channels (both
  // endpoints in one shard) self-register on the owner's active list
  // when a send / credit return / stop flip gives advance() work, and
  // the sweep delists them once quiescent.  Boundary channels are
  // *pinned* — permanently listed — because their two endpoint routers
  // run on different threads and touch() list maintenance is the one
  // channel mutation that is not endpoint-disjoint; pinned, touch()
  // never writes, and the shard-private field writes that remain
  // (sender: staged/credits/total_sends; receiver: pending credits,
  // stop_pending) never conflict.
  for (std::size_t i = 0; i < channels_.size(); ++i) {
    const ChannelMeta& m = channel_meta_[i];
    ShardState& owner = *shards_[static_cast<std::size_t>(
        part_.shard_of_node(m.dst_node))];
    channels_[i].attach_active_list(&owner.active_channels,
                                    static_cast<std::uint32_t>(i));
    if (!part_.same_shard(m.src_node, m.dst_node)) channels_[i].pin();
  }

  sources_.resize(static_cast<std::size_t>(n));
  for (NodeId id = 0; id < static_cast<NodeId>(n); ++id) {
    ShardState& owner =
        *shards_[static_cast<std::size_t>(part_.shard_of_node(id))];
    sources_[id].attach(&now_, &owner.tally, &owner.flit_pool);
  }

  routers_.reserve(static_cast<std::size_t>(n));
  for (NodeId id = 0; id < static_cast<NodeId>(n); ++id) {
    ShardState& owner =
        *shards_[static_cast<std::size_t>(part_.shard_of_node(id))];
    RouterEnv env;
    env.cfg = &cfg_;
    env.mesh = &mesh_;
    env.energy = &owner.energy;
    env.faults = &faults_;
    env.route_table = route_table_.get();
    env.route_cache = route_cache_.get();
    for (Direction d : kLinkDirs) {
      const int di = port_index(d);
      // Outgoing: our own link in direction d.
      env.out_links[static_cast<std::size_t>(di)] = channel_at(id, di);
      // Incoming over input port d: the neighbour-in-direction-d's link
      // pointing back at us.
      const auto nb = mesh_.neighbor(id, d);
      if (nb) {
        env.in_links[static_cast<std::size_t>(di)] =
            channel_at(*nb, port_index(opposite(d)));
      }
    }
    auto router = make_router(id, env);
    router->source = &sources_[id];
    router->nack_sink = &owner;
    routers_.push_back(std::move(router));
  }

  if (cfg_.design == RouterDesign::Scarab) {
    scarab_staging_.resize(static_cast<std::size_t>(n));
    for (NodeId id = 0; id < static_cast<NodeId>(n); ++id) {
      scarab_staging_[id].attach_pool(
          &shards_[static_cast<std::size_t>(part_.shard_of_node(id))]
               ->flit_pool);
    }
    scarab_outstanding_.assign(static_cast<std::size_t>(n), 0);
    scarab_capacity_flits_ = cfg_.retransmit_buffer * cfg_.packet_length;
    nacks_.set_num_nodes(n);
  }
}

PacketId Network::inject_packet(NodeId src, NodeId dst, int length,
                                Cycle now) {
  return inject_packet(src, dst, length, now, MsgClass::Request);
}

PacketId Network::inject_packet(NodeId src, NodeId dst, int length, Cycle now,
                                MsgClass cls) {
  assert(src != dst && "self-addressed packets are not routed");
  const PacketId id = next_packet_++;
  for (int s = 0; s < length; ++s) {
    Flit f;
    f.packet = id;
    f.seq = static_cast<std::uint16_t>(s);
    f.packet_len = static_cast<std::uint16_t>(length);
    f.src = src;
    f.dst = dst;
    f.cls = static_cast<std::uint8_t>(cls);
    f.born_at = now;
    f.injected_at = kNotInjected;
    if (cfg_.design == RouterDesign::Scarab) {
      scarab_staging_[src].push_back(f);
    } else {
      sources_[src].push_back(f);
    }
  }
  ++packets_created_;
  flits_created_ += static_cast<std::uint64_t>(length);
  if (tracer_ != nullptr) {
    tracer_->on_packet_created(id, src, dst, length, now);
  }
  return id;
}

void Network::scarab_release_staging() {
  for (NodeId n = 0; n < static_cast<NodeId>(scarab_staging_.size()); ++n) {
    auto& staging = scarab_staging_[n];
    while (!staging.empty() &&
           scarab_outstanding_[n] < scarab_capacity_flits_) {
      sources_[n].push_back(staging.pop_front());
      ++scarab_outstanding_[n];
    }
  }
}

void Network::scarab_deliver_nacks() {
  for (Flit f : nacks_.deliveries(now_)) {
    ++f.retransmits;
    // Retransmissions keep their original age so they eventually win
    // (SCARAB's forward-progress argument).
    sources_[f.src].push_front(f);
  }
}

void Network::handle_ejections() {
  for (auto& router : routers_) {
    if (router->ejected.empty()) continue;
    for (const Flit& f : router->ejected) {
      assert(f.dst == router->id() && "flit ejected at wrong node");
      ++flits_delivered_;
      stats_.on_flit_ejected(f, now_);
      if (tracer_ != nullptr) tracer_->on_flit_ejected(f, now_);
      if (cfg_.design == RouterDesign::Scarab) {
        --scarab_outstanding_[f.src];
      }

      Assembly& a = assembly_[f.packet];
      if (a.received == 0) {
        a.rec.id = f.packet;
        a.rec.src = f.src;
        a.rec.dst = f.dst;
        a.rec.length = f.packet_len;
        a.rec.cls = f.cls;
        a.rec.created = f.born_at;
        a.rec.injected = f.injected_at;
      }
      ++a.received;
      a.rec.injected = std::min(a.rec.injected, f.injected_at);
      a.rec.total_hops += f.hops;
      a.rec.total_deflections += f.deflections;
      a.rec.total_retransmits += f.retransmits;
      if (a.received == f.packet_len) {
        a.rec.completed = now_;
        PacketRecord rec = a.rec;
        assembly_.erase(f.packet);
        ++packets_delivered_;
        stats_.on_packet_completed(rec);
        if (tracer_ != nullptr) tracer_->on_packet_completed(rec, now_);
        if (workload_ != nullptr) {
          workload_->on_packet_delivered(rec, now_, *this);
        }
      }
    }
    router->ejected.clear();
  }
}

namespace {

/// Steps the routers in [begin, end) through their concrete type.  All
/// routers of one network share the design, so the per-cycle loop
/// dispatches once on the enum instead of once per router through the
/// vtable; the virtual interface remains for extensions and tests.
template <typename ConcreteRouter>
void step_range(std::vector<std::unique_ptr<Router>>& routers, NodeId begin,
                NodeId end, Cycle now) {
  for (NodeId i = begin; i < end; ++i) {
    static_cast<ConcreteRouter*>(routers[i].get())->step(now);
  }
}

}  // namespace

void Network::step_routers_shard(int shard) {
  const NodeId b = part_.node_begin(shard);
  const NodeId e = part_.node_end(shard);
  switch (cfg_.design) {
    case RouterDesign::FlitBless:
      step_range<BlessRouter>(routers_, b, e, now_);
      return;
    case RouterDesign::Scarab:
      step_range<ScarabRouter>(routers_, b, e, now_);
      return;
    case RouterDesign::Buffered4:
    case RouterDesign::Buffered8:
      step_range<BufferedRouter>(routers_, b, e, now_);
      return;
    case RouterDesign::DXbar:
      step_range<DXbarRouter>(routers_, b, e, now_);
      return;
    case RouterDesign::UnifiedXbar:
      step_range<UnifiedRouter>(routers_, b, e, now_);
      return;
    case RouterDesign::BufferedVC:
      step_range<VcRouter>(routers_, b, e, now_);
      return;
    case RouterDesign::Afc:
      step_range<AfcRouter>(routers_, b, e, now_);
      return;
    case RouterDesign::Damq:
      step_range<DamqRouter>(routers_, b, e, now_);
      return;
    case RouterDesign::MinBD:
      step_range<MinBDRouter>(routers_, b, e, now_);
      return;
  }
  for (NodeId i = b; i < e; ++i) routers_[i]->step(now_);  // unreachable
}

void Network::sweep_channels(int shard) {
  // Links move: flits advance one stage, pending credits post, and this
  // cycle's arrival (if any) lands in the downstream input register —
  // always a router of this shard, since the shard owns the channel by
  // its destination.  Only channels with pending work are visited
  // (advance() is the identity on a quiescent channel); channels are
  // mutually independent, so advancing and delivering in the same sweep
  // is equivalent to a full two-pass formulation, and per-shard sweep
  // order is immaterial.  A channel that went quiescent is delisted in
  // place and re-registers itself on its next mutation; pinned
  // (boundary) channels stay listed forever.
  auto& list = shards_[static_cast<std::size_t>(shard)]->active_channels;
  std::size_t keep = 0;
  for (std::size_t k = 0; k < list.size(); ++k) {
    const std::uint32_t i = list[k];
    Channel& ch = channels_[i];
    ch.advance();
    if (ch.has_arrival()) {
      const Flit f = *ch.take_arrival();
      const ChannelMeta m = channel_meta_[i];
      auto& slot =
          routers_[m.dst_node]->in[static_cast<std::size_t>(m.dst_port)];
      assert(!slot.has_value() && "input register collision");
      if (tracer_ != nullptr) tracer_->on_flit_hop(f, m.dst_node, now_);
      slot = f;
    }
    if (!ch.pinned() && ch.quiescent()) {
      ch.mark_delisted();
    } else {
      list[keep++] = i;
    }
  }
  list.resize(keep);
}

void Network::commit_shard_effects() {
  for (auto& sp : shards_) {
    ShardState& s = *sp;
    // SCARAB drops, in node order (shards are ascending contiguous node
    // ranges, and each shard recorded its drops in node order): the
    // NACK network's wire arbitration is sequence-numbered, so commit
    // order must reproduce the single-threaded call order exactly.
    for (const StagedDrop& d : s.drops) {
      ++flits_dropped_;
      if (tracer_ != nullptr) tracer_->on_flit_dropped(d.flit, d.at, now_);
      nacks_.schedule(d.flit, d.at, now_, mesh_, energy_);
    }
    s.drops.clear();
    // Integer event counts fold order-independently, which is what
    // keeps energy totals bit-identical across shard counts.
    energy_.absorb(s.energy);
    stats_.add_injected(s.tally.take());
  }
}

template <typename F>
void Network::run_sharded(F&& fn) {
  if (pool_ != nullptr && tracer_ == nullptr) {
    pool_->run(fn);
  } else {
    for (int s = 0; s < part_.shards(); ++s) fn(s);
  }
}

void Network::step() {
  // One cycle, in five phases.  The parallel phases (1, 4) are a data
  // partition of the single-threaded loop — same per-element work, only
  // the executing thread differs — and the barriers between phases are
  // the only synchronization, so every shard count computes the same
  // cycle function (DESIGN.md §10).

  // 1. [parallel] Links move; arrivals land in input registers.
  run_sharded([this](int s) { sweep_channels(s); });

  // 2. [serial] SCARAB control: NACK deliveries re-queue drops; staging
  //    drains into the sources while retransmit-buffer space allows.
  if (cfg_.design == RouterDesign::Scarab) {
    scarab_deliver_nacks();
    scarab_release_staging();
  }

  // 3. [serial] Workload injects this cycle's new packets.  Kept serial
  //    so the traffic RNG stays one stream with the single-threaded
  //    draw order — bit-exactness by construction, not reconstruction.
  if (workload_ != nullptr) workload_->begin_cycle(now_, *this);

  // 4. [parallel] Routers switch.  All inter-router coupling is
  //    channel-mediated and endpoint-disjoint, so iteration order is
  //    immaterial; shared side effects (drops, energy, injection
  //    counts) are staged per shard.
  run_sharded([this](int s) { step_routers_shard(s); });

  // 5. [serial] Fold staged effects, then ejections, reassembly,
  //    completion callbacks.
  commit_shard_effects();
  handle_ejections();

  ++now_;
}

std::vector<Network::LinkUsage> Network::link_usage() const {
  std::vector<LinkUsage> out;
  for (NodeId n = 0; n < static_cast<NodeId>(mesh_.num_nodes()); ++n) {
    for (Direction d : kLinkDirs) {
      const std::int32_t slot =
          link_slot_[static_cast<std::size_t>(link_index(n, port_index(d)))];
      if (slot >= 0) {
        out.push_back(
            {LinkId{n, d},
             channels_[static_cast<std::size_t>(slot)].total_sends()});
      }
    }
  }
  return out;
}

bool Network::idle_by_scan() const {
  for (const auto& s : sources_) {
    if (!s.empty()) return false;
  }
  for (const auto& r : routers_) {
    if (r->occupancy() != 0) return false;
  }
  for (const Channel& ch : channels_) {
    if (ch.occupancy() != 0) return false;
  }
  if (!nacks_.empty()) return false;
  for (const auto& st : scarab_staging_) {
    if (!st.empty()) return false;
  }
  return true;
}

bool Network::idle() const {
  // Flit conservation: every created flit sits in exactly one of the
  // places idle_by_scan() walks until it is delivered, so the counter
  // identity is equivalent to the structural scan (asserted in debug).
  const bool fast = flits_created_ == flits_delivered_;
  assert(fast == idle_by_scan());
  return fast;
}

}  // namespace dxbar
