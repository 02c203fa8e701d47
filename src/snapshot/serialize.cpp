#include "snapshot/serialize.hpp"

#include <type_traits>

namespace dxbar {

namespace {

// Each field's bytes take its member type's width: i32, f64, u64, one
// byte for a bool and u8 for an enum.
void put(SnapshotWriter& w, int v) { w.i32(v); }
void put(SnapshotWriter& w, double v) { w.f64(v); }
void put(SnapshotWriter& w, std::uint64_t v) { w.u64(v); }
void put(SnapshotWriter& w, bool v) { w.boolean(v); }
template <class E> requires std::is_enum_v<E>
void put(SnapshotWriter& w, E v) { w.u8(static_cast<std::uint8_t>(v)); }

void get(SnapshotReader& r, int& v) { v = r.i32(); }
void get(SnapshotReader& r, double& v) { v = r.f64(); }
void get(SnapshotReader& r, std::uint64_t& v) { v = r.u64(); }
void get(SnapshotReader& r, bool& v) { v = r.boolean(); }
template <class E> requires std::is_enum_v<E>
void get(SnapshotReader& r, E& v) { v = static_cast<E>(r.u8()); }

}  // namespace

void save_run_stats(SnapshotWriter& w, const RunStats& s) {
  for (const StatsField& f : run_stats_fields()) {
    if (f.stored()) f.visit(s, [&](auto v) { put(w, v); });
  }
  s.req_hist.save(w);
}

RunStats load_run_stats(SnapshotReader& r) {
  RunStats s;
  for (const StatsField& f : run_stats_fields()) {
    if (f.stored()) f.visit(s, [&](auto& v) { get(r, v); });
  }
  s.req_hist.load(r);
  return s;
}

void save_config(SnapshotWriter& w, const SimConfig& cfg) {
  for (const ConfigField& f : config_fields()) {
    if (!f.has(kExecutionOnly)) f.visit(cfg, [&](auto v) { put(w, v); });
  }
}

SimConfig load_config(SnapshotReader& r) {
  SimConfig cfg;
  for (const ConfigField& f : config_fields()) {
    if (!f.has(kExecutionOnly)) f.visit(cfg, [&](auto& v) { get(r, v); });
  }
  return cfg;
}

std::uint64_t structural_fingerprint(const SimConfig& cfg) {
  SnapshotWriter w;
  for (const ConfigField& f : config_fields()) {
    if (f.has(kStructural)) f.visit(cfg, [&](auto v) { put(w, v); });
  }
  return fnv1a(w.data().data(), w.data().size());
}

}  // namespace dxbar
