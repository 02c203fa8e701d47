// The results-store codecs (RunStats, SimConfig) and the structural
// fingerprint, layered on the snapshot wire format.  Value types such
// as Flit and PacketRecord list their own fields (see
// snapshot/snapshot.hpp) and travel through `ar(x)` directly.
#pragma once

#include "common/config.hpp"
#include "common/flit.hpp"
#include "common/stats.hpp"
#include "snapshot/snapshot.hpp"

namespace dxbar {

inline void save_flit(SnapshotWriter& w, const Flit& f) { w(f); }

inline Flit load_flit(SnapshotReader& r) {
  Flit f;
  r(f);
  return f;
}

// ---- RunStats / SimConfig (results-store persistence) ----------------

/// Every stored run_stats_fields() row, in table order, then req_hist.
void save_run_stats(SnapshotWriter& w, const RunStats& s);
RunStats load_run_stats(SnapshotReader& r);

/// Every serialized config field, in config_fields() order.
void save_config(SnapshotWriter& w, const SimConfig& cfg);
SimConfig load_config(SnapshotReader& r);
/// save_config's stream on its own: the key of a config's result in the
/// session results store (sim/results_log.hpp).
std::vector<std::uint8_t> config_bytes(const SimConfig& cfg);

/// Hash of the kStructural config fields: those that determine a
/// network's structure and switching behaviour (mesh, design, buffer
/// sizing, fault plans, seed, stats window).  Network::load refuses a
/// snapshot whose fingerprint differs from the target's — the remaining
/// fields (offered load, pattern, drain cap, ...) belong to the workload
/// and may legitimately differ across a warm-start fork.
std::uint64_t structural_fingerprint(const SimConfig& cfg);

}  // namespace dxbar
