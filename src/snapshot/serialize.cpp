#include "snapshot/serialize.hpp"

#include <type_traits>

namespace dxbar {

void save_run_stats(SnapshotWriter& w, const RunStats& s) {
  w.f64(s.offered_load);
  w.f64(s.accepted_load);
  w.f64(s.accepted_load_stddev);
  w.f64(s.avg_packet_latency);
  w.f64(s.avg_network_latency);
  w.f64(s.latency_p50);
  w.f64(s.latency_p95);
  w.f64(s.latency_p99);
  w.f64(s.latency_max);
  w.f64(s.avg_hops);
  w.f64(s.deflections_per_flit);
  w.f64(s.retransmits_per_flit);
  w.u64(s.packets_completed);
  w.u64(s.flits_ejected);
  w.u64(s.flits_injected);
  w.u64(s.cycles);
  w.i32(s.packet_length);
  w.boolean(s.drained);
  w.f64(s.energy_buffer_nj);
  w.f64(s.energy_crossbar_nj);
  w.f64(s.energy_link_nj);
  w.f64(s.energy_control_nj);
  w.f64(s.avg_req_latency);
  w.f64(s.req_latency_p50);
  w.f64(s.req_latency_p95);
  w.f64(s.req_latency_p99);
  w.f64(s.req_latency_max);
  w.u64(s.requests_completed);
  s.req_hist.save(w);
  w.f64(s.energy_leakage_nj);
}

RunStats load_run_stats(SnapshotReader& r) {
  RunStats s;
  s.offered_load = r.f64();
  s.accepted_load = r.f64();
  s.accepted_load_stddev = r.f64();
  s.avg_packet_latency = r.f64();
  s.avg_network_latency = r.f64();
  s.latency_p50 = r.f64();
  s.latency_p95 = r.f64();
  s.latency_p99 = r.f64();
  s.latency_max = r.f64();
  s.avg_hops = r.f64();
  s.deflections_per_flit = r.f64();
  s.retransmits_per_flit = r.f64();
  s.packets_completed = r.u64();
  s.flits_ejected = r.u64();
  s.flits_injected = r.u64();
  s.cycles = r.u64();
  s.packet_length = r.i32();
  s.drained = r.boolean();
  s.energy_buffer_nj = r.f64();
  s.energy_crossbar_nj = r.f64();
  s.energy_link_nj = r.f64();
  s.energy_control_nj = r.f64();
  s.avg_req_latency = r.f64();
  s.req_latency_p50 = r.f64();
  s.req_latency_p95 = r.f64();
  s.req_latency_p99 = r.f64();
  s.req_latency_max = r.f64();
  s.requests_completed = r.u64();
  s.req_hist.load(r);
  s.energy_leakage_nj = r.f64();
  return s;
}

void save_closed_loop_result(SnapshotWriter& w, const ClosedLoopResult& c) {
  w.u64(c.completion_cycles);
  w.boolean(c.finished);
  w.u64(c.packets);
  w.f64(c.energy_nj);
  w.f64(c.energy_per_packet_nj);
  w.f64(c.avg_packet_latency);
}

ClosedLoopResult load_closed_loop_result(SnapshotReader& r) {
  ClosedLoopResult c;
  c.completion_cycles = r.u64();
  c.finished = r.boolean();
  c.packets = r.u64();
  c.energy_nj = r.f64();
  c.energy_per_packet_nj = r.f64();
  c.avg_packet_latency = r.f64();
  return c;
}

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
