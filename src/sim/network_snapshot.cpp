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
#include <algorithm>
#include <cassert>
#include <span>
#include <utility>
#include <vector>

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

template <class Self, class Ar>
void Network::fields(Self& self, Ar& ar) {
  ar.section(kSecNetwork, [&] {
    // Checked before anything is restored.
    ar.expect(structural_fingerprint(self.cfg_),
              "structural fingerprint mismatch: the snapshot was taken on a "
              "network with a different structure (mesh, design, buffers, "
              "faults, seed, or stats window)");
    ar(self.now_, self.next_packet_, self.flits_created_,
       self.flits_delivered_, self.packets_created_, self.packets_delivered_,
       self.flits_dropped_);
  });
  ar.section(kSecEnergy, [&] { ar(self.energy_); });
  ar.section(kSecFaults, [&] { ar(self.faults_); });
  ar.section(kSecChannels, [&] {
    ar.expect(self.channels_.size(), "channel count mismatch", 1);
    ar(std::span(self.channels_));
  });
  ar.section(kSecRouters, [&] {
    ar.expect(self.routers_.size(), "router count mismatch", 1);
    for (const auto& r : self.routers_) {
      if constexpr (Ar::kLoading) {
        r->load_state(ar);
      } else {
        r->save_state(ar);
      }
    }
  });
  ar.section(kSecSources, [&] {
    ar.expect(self.sources_.size(), "source queue count mismatch", 1);
    ar(std::span(self.sources_));
  });
  ar.section(kSecAssembly, [&] {
    // Written in packet-id order, so the bytes are a function of the
    // table's contents: a restored table's slot order differs from the
    // original's.  Rebuilt by insertion into a fresh table (not clear())
    // whose capacity follows the stream's entry count, not what this
    // network held before.  Packet id 0 marks an empty slot.
    if constexpr (Ar::kLoading) {
      self.assembly_ = PacketMap<Assembly>();
      const std::uint64_t mshrs = ar.count(8 + 4);
      for (std::uint64_t i = 0; i < mshrs; ++i) {
        PacketId key = 0;
        ar(key);
        if (key == 0) throw SnapshotError("reassembly entry for packet id 0");
        ar(self.assembly_[key]);
      }
    } else {
      std::vector<std::pair<PacketId, const Assembly*>> entries;
      entries.reserve(self.assembly_.size());
      self.assembly_.for_each([&](PacketId key, const Assembly& a) {
        entries.emplace_back(key, &a);
      });
      std::sort(entries.begin(), entries.end());
      ar(std::uint64_t{entries.size()});
      for (const auto& [key, a] : entries) ar(key, *a);
    }
  });
  ar.section(kSecScarab, [&] {
    ar.expect(self.scarab_staging_.size(), "SCARAB staging count mismatch",
              1);
    ar(std::span(self.scarab_staging_), std::span(self.scarab_outstanding_),
       self.nacks_);
  });
  ar.section(kSecStats, [&] { ar(self.stats_); });
}

void Network::save(SnapshotWriter& w) const {
#ifndef NDEBUG
  for (const auto& s : shards_) {
    assert(s->ejections.empty() && "snapshot mid-cycle: ejections pending");
  }
  for (const auto& r : routers_) {
    for (const auto& slot : r->in) {
      assert(!slot.has_value() && "snapshot mid-cycle: input register full");
    }
  }
#endif
  fields(*this, w);
}

void Network::load(SnapshotReader& r) {
  fields(*this, r);
  // Per-cycle transients are empty at a step boundary.  Each pinned or
  // non-quiescent channel re-registers on its owning shard's active
  // list, dropped first so stale slots never linger.  Shard layout is
  // structural, not part of the stream — a snapshot taken at any shard
  // count restores here.
  for (auto& s : shards_) {
    s->ejections.clear();
    s->active_channels.clear();
  }
  for (auto& rt : routers_) {
    for (auto& slot : rt->in) slot.reset();
  }
  for (Channel& ch : channels_) ch.relist();
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
