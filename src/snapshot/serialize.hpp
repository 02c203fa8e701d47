// Serializers for the shared value types (Flit, PacketRecord, RunStats,
// SimConfig) plus small container helpers, layered on the snapshot wire
// format.  Components with private state implement their own
// save()/load() members; everything that is a plain value round-trips
// through these free functions so every writer and reader agree on one
// field order.
#pragma once

#include <optional>

#include "common/config.hpp"
#include "common/fixed_queue.hpp"
#include "common/flit.hpp"
#include "common/stats.hpp"
#include "snapshot/snapshot.hpp"

namespace dxbar {

// ---- Flit -----------------------------------------------------------

inline void save_flit(SnapshotWriter& w, const Flit& f) {
  w.u64(f.packet);
  w.u16(f.seq);
  w.u16(f.packet_len);
  w.u32(f.src);
  w.u32(f.dst);
  w.u64(f.injected_at);
  w.u64(f.born_at);
  w.u8(f.vc);
  w.u8(f.cls);
  w.u8(f.deflections);
  w.u8(f.retransmits);
  w.u16(f.hops);
}

inline Flit load_flit(SnapshotReader& r) {
  Flit f;
  f.packet = r.u64();
  f.seq = r.u16();
  f.packet_len = r.u16();
  f.src = r.u32();
  f.dst = r.u32();
  f.injected_at = r.u64();
  f.born_at = r.u64();
  f.vc = r.u8();
  f.cls = r.u8();
  f.deflections = r.u8();
  f.retransmits = r.u8();
  f.hops = r.u16();
  return f;
}

inline void save_optional_flit(SnapshotWriter& w,
                               const std::optional<Flit>& f) {
  w.boolean(f.has_value());
  if (f.has_value()) save_flit(w, *f);
}

inline std::optional<Flit> load_optional_flit(SnapshotReader& r) {
  if (!r.boolean()) return std::nullopt;
  return load_flit(r);
}

// ---- PacketRecord ---------------------------------------------------

inline void save_packet_record(SnapshotWriter& w, const PacketRecord& p) {
  w.u64(p.id);
  w.u32(p.src);
  w.u32(p.dst);
  w.u16(p.length);
  w.u8(p.cls);
  w.u64(p.created);
  w.u64(p.injected);
  w.u64(p.completed);
  w.u32(p.total_hops);
  w.u32(p.total_deflections);
  w.u32(p.total_retransmits);
}

inline PacketRecord load_packet_record(SnapshotReader& r) {
  PacketRecord p;
  p.id = r.u64();
  p.src = r.u32();
  p.dst = r.u32();
  p.length = r.u16();
  p.cls = r.u8();
  p.created = r.u64();
  p.injected = r.u64();
  p.completed = r.u64();
  p.total_hops = r.u32();
  p.total_deflections = r.u32();
  p.total_retransmits = r.u32();
  return p;
}

// ---- RunStats / SimConfig (campaign persistence) ---------------------

/// Every stored run_stats_fields() row, in table order, then req_hist.
void save_run_stats(SnapshotWriter& w, const RunStats& s);
RunStats load_run_stats(SnapshotReader& r);

/// Every serialized config field, in config_fields() order.
void save_config(SnapshotWriter& w, const SimConfig& cfg);
SimConfig load_config(SnapshotReader& r);

/// Hash of the kStructural config fields: those that determine a
/// network's structure and switching behaviour (mesh, design, buffer
/// sizing, fault plans, seed, stats window).  Network::load refuses a
/// snapshot whose fingerprint differs from the target's — the remaining
/// fields (offered load, pattern, drain cap, ...) belong to the workload
/// and may legitimately differ across a warm-start fork.
std::uint64_t structural_fingerprint(const SimConfig& cfg);

// ---- container helpers ----------------------------------------------

/// Writes a FixedQueue front-to-back through a per-element serializer
/// `f(writer, elem)`.
template <typename T, typename SaveElem>
void save_fixed_queue(SnapshotWriter& w, const FixedQueue<T>& q,
                      SaveElem&& f) {
  w.u64(q.size());
  for (std::size_t i = 0; i < q.size(); ++i) f(w, q.at(i));
}

/// Restores a FixedQueue in place from `f(reader) -> elem`; the queue's
/// capacity is structural and must hold the serialized population.
template <typename T, typename LoadElem>
void load_fixed_queue(SnapshotReader& r, FixedQueue<T>& q, LoadElem&& f) {
  q.clear();
  const std::uint64_t n = r.count();
  if (n > q.capacity()) {
    throw SnapshotError("fixed queue population exceeds capacity");
  }
  for (std::uint64_t i = 0; i < n; ++i) (void)q.push(f(r));
}

}  // namespace dxbar
