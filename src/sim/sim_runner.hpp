// Simulation runners: one run shape (warmup / measure / drain) for every
// workload.  A finite workload (workload=splash, a trace replay) runs
// with warmup 0 and the cycle cap as its measurement window; its run
// ends when its work is done and the network is idle, with no drain.
#pragma once

#include <memory>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "sim/network.hpp"

namespace dxbar {

/// One open-loop simulation: Bernoulli injection of cfg.pattern at
/// cfg.offered_load, measured over cfg.measure_cycles after
/// cfg.warmup_cycles, then drained (injection off) for up to
/// cfg.drain_cycles.  Energy accumulates only during the measurement
/// window.  Fully deterministic for a given cfg.
RunStats run_open_loop(const SimConfig& cfg);

/// Like run_open_loop but against a caller-provided workload (e.g. a
/// trace replay).  The workload must honour set_injection_enabled.
RunStats run_open_loop(const SimConfig& cfg, WorkloadModel& workload);

/// Steps `net` forward to cycle `until` (capped at the end of the
/// measurement window, and stopping early where a finite workload's
/// work is done and the network is idle), flipping the energy meter on
/// at the warmup boundary.  The energy gate is re-derived from the clock on entry, so
/// calling this on a network restored from a snapshot reproduces the
/// straight-through run exactly.  The building block behind warm-start
/// sweeps.
void advance_open_loop(Network& net, Cycle until);

/// Completes an open-loop run from the network's current cycle:
/// advance_open_loop to the end of the measurement window, then the
/// drain (none for a finite workload) and the summary: window stats,
/// energy priced at the network's own config, and the workload's
/// request-latency fields.  `workload` must be the
/// workload attached to `net`.  Equivalent to the tail of
/// run_open_loop, so a warmup snapshot + finish_open_loop is
/// bit-identical to a cold run.
RunStats finish_open_loop(Network& net, WorkloadModel& workload,
                          std::vector<PacketRecord>* packets_out = nullptr);

/// The state of an open-loop run in progress: the network's sections
/// plus a WKLD section holding the workload's state.  Warm-start forks
/// persist it.
void save_open_loop_state(SnapshotWriter& w, const Network& net,
                          const WorkloadModel& workload);

/// Restores save_open_loop_state's output into a freshly built network
/// and its attached workload.  Throws SnapshotError on a foreign or
/// damaged stream (the pair may then be partially overwritten).
void load_open_loop_state(SnapshotReader& r, Network& net,
                          WorkloadModel& workload);

/// Fills the five energy fields of `out` (buffer, crossbar, link,
/// control, and leakage over out.cycles) by pricing the meter's event
/// counts at `cfg`'s operating point.  The one pricing step of an
/// open-loop run: finish_open_loop calls it with its own config, and
/// run_sweep calls it with a sibling config that differs only in
/// pricing-only fields, so a repriced result equals the cold run.
void fill_energy_stats(RunStats& out, const EnergyMeter& events,
                       const SimConfig& cfg);

/// Open-loop run that also returns the per-packet records of the
/// measurement window (for per-node fairness analysis, latency
/// distributions, custom post-processing).
struct DetailedRun {
  RunStats stats;
  std::vector<PacketRecord> packets;  ///< window packets, completion order
};
DetailedRun run_open_loop_detailed(const SimConfig& cfg);

}  // namespace dxbar
