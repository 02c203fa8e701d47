// Network snapshot/restore: serializes the mutable simulation state as
// tagged sections (see snapshot/snapshot.hpp for the wire format).
//
// Section order is part of the format:
//   NETW  fingerprint + clock + global flit/packet counters
//   ENRG  energy accumulators
//   FLTP  crossbar fault plan (custom plans travel with the snapshot)
//   CHAN  per-channel pipeline registers, credits, stop state
//   RTRS  per-router design state (buffers, arbiters, counters)
//   SRCQ  per-node source queues
//   ASMB  packet-reassembly MSHRs
//   SCRB  SCARAB staging/outstanding/NACK network (empty otherwise)
//   STAT  statistics collector (window + per-packet records)
//
// Structural state (mesh wiring, route tables/caches, credit sizing) is
// never serialized: load() targets a freshly constructed — or previously
// stepped — network built from a structurally identical SimConfig, and
// the NETW fingerprint check enforces that before anything is mutated.
#include <cassert>

#include "sim/network.hpp"
#include "snapshot/serialize.hpp"

namespace dxbar {

namespace {

constexpr std::uint32_t kSecNetwork = section_tag("NETW");
constexpr std::uint32_t kSecEnergy = section_tag("ENRG");
constexpr std::uint32_t kSecFaults = section_tag("FLTP");
constexpr std::uint32_t kSecChannels = section_tag("CHAN");
constexpr std::uint32_t kSecRouters = section_tag("RTRS");
constexpr std::uint32_t kSecSources = section_tag("SRCQ");
constexpr std::uint32_t kSecAssembly = section_tag("ASMB");
constexpr std::uint32_t kSecScarab = section_tag("SCRB");
constexpr std::uint32_t kSecStats = section_tag("STAT");

}  // namespace

void Network::save(SnapshotWriter& w) const {
  w.begin_section(kSecNetwork);
  w.u64(structural_fingerprint(cfg_));
  w.u64(now_);
  w.u64(next_packet_);
  w.u64(flits_created_);
  w.u64(flits_delivered_);
  w.u64(packets_created_);
  w.u64(packets_delivered_);
  w.u64(flits_dropped_);
  w.end_section();

  w.begin_section(kSecEnergy);
  energy_.save(w);
  w.end_section();

  w.begin_section(kSecFaults);
  faults_.save(w);
  w.end_section();

  w.begin_section(kSecChannels);
  w.u64(channels_.size());
  for (const Channel& ch : channels_) ch.save(w);
  w.end_section();

  w.begin_section(kSecRouters);
  w.u64(routers_.size());
#ifndef NDEBUG
  for (const auto& s : shards_) {
    assert(s->ejections.empty() && "snapshot mid-cycle: ejections pending");
  }
#endif
  for (const auto& r : routers_) {
#ifndef NDEBUG
    for (const auto& slot : r->in) {
      assert(!slot.has_value() && "snapshot mid-cycle: input register full");
    }
#endif
    r->save_state(w);
  }
  w.end_section();

  w.begin_section(kSecSources);
  w.u64(sources_.size());
  for (const auto& s : sources_) s.save(w);
  w.end_section();

  w.begin_section(kSecAssembly);
  w.u64(assembly_.size());
  assembly_.for_each([&w](PacketId key, const Assembly& a) {
    w.u64(key);
    w.i32(a.received);
    save_packet_record(w, a.rec);
  });
  w.end_section();

  w.begin_section(kSecScarab);
  w.u64(scarab_staging_.size());
  for (const auto& st : scarab_staging_) st.save(w);
  for (int o : scarab_outstanding_) w.i32(o);
  nacks_.save(w);
  w.end_section();

  w.begin_section(kSecStats);
  stats_.save(w);
  w.end_section();
}

void Network::load(SnapshotReader& r) {
  (void)r.expect_section(kSecNetwork);
  if (r.u64() != structural_fingerprint(cfg_)) {
    throw SnapshotError(
        "structural fingerprint mismatch: the snapshot was taken on a "
        "network with a different structure (mesh, design, buffers, "
        "faults, seed, or stats window)");
  }
  now_ = r.u64();
  next_packet_ = r.u64();
  flits_created_ = r.u64();
  flits_delivered_ = r.u64();
  packets_created_ = r.u64();
  packets_delivered_ = r.u64();
  flits_dropped_ = r.u64();

  (void)r.expect_section(kSecEnergy);
  energy_.load(r);

  (void)r.expect_section(kSecFaults);
  faults_.load(r);

  (void)r.expect_section(kSecChannels);
  if (r.count() != channels_.size()) {
    throw SnapshotError("channel count mismatch");
  }
  // Channel::load re-registers each non-quiescent (or pinned) channel
  // on its owning shard's active list; drop the current lists first so
  // stale slots never linger.  Shard layout is structural, not part of
  // the stream — a snapshot taken at any shard count restores here.
  for (auto& s : shards_) s->active_channels.clear();
  for (Channel& ch : channels_) ch.load(r);

  (void)r.expect_section(kSecRouters);
  if (r.count() != routers_.size()) {
    throw SnapshotError("router count mismatch");
  }
  for (auto& s : shards_) s->ejections.clear();
  for (auto& rt : routers_) {
    for (auto& slot : rt->in) slot.reset();
    rt->load_state(r);
  }

  (void)r.expect_section(kSecSources);
  if (r.count() != sources_.size()) {
    throw SnapshotError("source queue count mismatch");
  }
  for (auto& s : sources_) s.load(r);

  (void)r.expect_section(kSecAssembly);
  // A fresh table, not clear(): slot order, and so the bytes of the next
  // save, follows the table's capacity, which must come from the stream
  // rather than from what this network held before.
  assembly_ = PacketMap<Assembly>();
  const std::uint64_t mshrs = r.count(8 + 4);
  for (std::uint64_t i = 0; i < mshrs; ++i) {
    const PacketId key = r.u64();
    if (key == 0) throw SnapshotError("reassembly entry for packet id 0");
    Assembly& a = assembly_[key];
    a.received = r.i32();
    a.rec = load_packet_record(r);
  }

  (void)r.expect_section(kSecScarab);
  if (r.count() != scarab_staging_.size()) {
    throw SnapshotError("SCARAB staging count mismatch");
  }
  for (auto& st : scarab_staging_) st.load(r);
  for (int& o : scarab_outstanding_) o = r.i32();
  nacks_.load(r);

  (void)r.expect_section(kSecStats);
  stats_.load(r);
}

std::vector<std::uint8_t> Network::snapshot() const {
  SnapshotWriter w;
  save(w);
  return w.take();
}

void Network::restore(const std::vector<std::uint8_t>& bytes) {
  SnapshotReader r(bytes);
  load(r);
}

}  // namespace dxbar
