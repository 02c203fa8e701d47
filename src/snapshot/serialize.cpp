#include "snapshot/serialize.hpp"

namespace dxbar {

// Each field's bytes take its member type's width (`ar`'s rules): i32,
// f64, u64, one byte for a bool and u8 for an enum.

void save_run_stats(SnapshotWriter& w, const RunStats& s) {
  for (const StatsField& f : run_stats_fields()) {
    if (f.stored()) f.visit(s, w);
  }
  w(s.req_hist);
}

RunStats load_run_stats(SnapshotReader& r) {
  RunStats s;
  for (const StatsField& f : run_stats_fields()) {
    if (f.stored()) f.visit(s, r);
  }
  r(s.req_hist);
  return s;
}

void save_config(SnapshotWriter& w, const SimConfig& cfg) {
  for (const ConfigField& f : config_fields()) {
    if (!f.has(kExecutionOnly)) f.visit(cfg, w);
  }
}

SimConfig load_config(SnapshotReader& r) {
  SimConfig cfg;
  for (const ConfigField& f : config_fields()) {
    if (!f.has(kExecutionOnly)) f.visit(cfg, r);
  }
  return cfg;
}

std::vector<std::uint8_t> config_bytes(const SimConfig& cfg) {
  SnapshotWriter w;
  save_config(w, cfg);
  return w.take();
}

std::uint64_t structural_fingerprint(const SimConfig& cfg) {
  SnapshotWriter w;
  for (const ConfigField& f : config_fields()) {
    if (f.has(kStructural)) f.visit(cfg, w);
  }
  return fnv1a(w.data().data(), w.data().size());
}

}  // namespace dxbar
