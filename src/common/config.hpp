// Simulation configuration.  One value-semantic struct describes a whole
// experiment point; helpers parse "key=value" command-line overrides so
// examples and benches share one configuration surface.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "common/types.hpp"

namespace dxbar {

struct SimConfig {
  // --- topology -------------------------------------------------------
  int mesh_width = 8;
  int mesh_height = 8;
  /// Extension: wrap the mesh into a torus.  Wrap links close ring
  /// dependency cycles, so only designs with a deflection escape valve
  /// are allowed; the geometric turn models degenerate to minimal
  /// adaptive routing (shortest way around per dimension).
  bool torus = false;

  // --- router microarchitecture ---------------------------------------
  RouterDesign design = RouterDesign::DXbar;
  RoutingAlgo routing = RoutingAlgo::DOR;
  /// Secondary-crossbar / input FIFO depth in flits (paper: 4).
  int buffer_depth = 4;
  /// Consecutive primary-side wins before priority flips (paper: 4).
  int fairness_threshold = 4;
  /// Cycles a DXbar/Unified FIFO head (or the injection front) may be
  /// denied by on/off backpressure before it pushes into a stopped
  /// receiver anyway (liveness valve; see router/router.hpp).  Smaller
  /// values raise peak throughput but cost deflection energy around
  /// hot spots; larger values do the reverse.
  int stall_escape_delay = 16;
  /// Virtual channels per input for the BufferedVC extension baseline
  /// (each gets buffer_depth / num_vcs slots).
  int num_vcs = 2;
  /// Source-side injection queue depth (packets awaiting injection).
  int source_queue_depth = 64;
  /// SCARAB retransmission buffer entries per node.
  int retransmit_buffer = 16;

  // --- traffic ----------------------------------------------------------
  /// Synthetic pattern for open-loop runs.
  TrafficPattern pattern = TrafficPattern::UniformRandom;
  /// Offered load as a fraction of per-node injection capacity
  /// (1.0 == one flit per node per cycle).
  double offered_load = 0.3;
  /// Injection rate used during the warmup phase only; negative (the
  /// default) means "same as offered_load".  Pinning this to one value
  /// across a load sweep makes every point's warmup traffic identical,
  /// which is what lets a warm-start sweep run warmup once, snapshot,
  /// and fork the measured phase bit-exactly (see sim/sweep.hpp).
  double warmup_load = -1.0;
  /// Packet length in flits (cache-line data packet: 64 B / 16 B flits + head).
  int packet_length = 5;
  /// Flit width in bits (paper: 128).  A flit is one phit, so the width
  /// feeds only the energy/area model, never cycle-level behaviour.
  int flit_bits = 128;

  // --- technology -------------------------------------------------------
  /// Process node in nm for the parametric energy/area model (65, 32 or
  /// 16; the paper's Table III point is 65).  Structural for snapshot
  /// identity: the derived per-event energies are part of what a result
  /// means, even though the cycle-level dynamics are node-independent.
  int tech_node = 65;

  // --- closed-loop workload (workload=closedloop; DESIGN.md section 12) --
  /// Which workload model drives injection.  Synthetic (default) keeps
  /// the paper's open-loop Bernoulli traffic; ClosedLoop switches to the
  /// finite-MLP request-reply client model in src/workload/.
  WorkloadKind workload = WorkloadKind::Synthetic;
  /// Memory-level parallelism: outstanding requests each node may hold.
  int mlp = 4;
  /// Cycles the destination "serves" a request before issuing the reply.
  Cycle service_delay = 8;
  /// Request packet length in flits (a read request is address-only;
  /// the reply carries the data and uses packet_length).
  int request_length = 1;
  /// Fraction of requests aimed at the four mesh-center hotspot nodes
  /// instead of a uniformly random destination.
  double hotspot_fraction = 0.0;
  /// Coherence-shaped client mix: fraction of transactions that are
  /// reads (short request -> long data reply).  The remainder are
  /// writes: a long data-carrying request, a short ack reply, and a
  /// fire-and-forget writeback packet (MsgClass::Writeback — the
  /// evicted victim line) to an independent destination.  1.0 (the
  /// default) draws no extra RNG samples, so pure-read runs are
  /// bit-identical to the pre-knob behaviour.
  double read_fraction = 1.0;

  // --- phases -----------------------------------------------------------
  Cycle warmup_cycles = 1000;
  Cycle measure_cycles = 8000;
  /// Cap on the drain phase after injection stops.
  Cycle drain_cycles = 50000;

  // --- faults -----------------------------------------------------------
  /// Fraction of routers with one failed crossbar in [0, 1]
  /// (paper's "100% faults" == a fault in almost every router).
  double fault_fraction = 0.0;
  /// BIST detection delay in cycles (paper assumes 5).
  Cycle fault_detect_delay = 5;
  /// Crossbar-fault onset spread: faults manifest at a random cycle in
  /// [0, spread).  1 (default) = all faults present from cycle 0, the
  /// paper's static-fault methodology; larger values stagger the onsets
  /// so detection transients occur throughout the run.
  Cycle fault_onset_spread = 1;
  /// Extension: fraction of mesh *edges* that are dead (both directions),
  /// routed around via the fault-aware BFS table.  The plan never
  /// disconnects the mesh.
  double link_fault_fraction = 0.0;

  // --- execution ---------------------------------------------------------
  /// Worker threads one simulation is sharded across (row-strip mesh
  /// partition; see DESIGN.md §10).  Purely an execution knob: results
  /// are bit-exact for every value, and it is clamped to the mesh height
  /// at build time.  Not part of the snapshot identity — a checkpoint
  /// taken at any shard count restores under any other.
  int shards = 1;

  // --- misc ---------------------------------------------------------------
  std::uint64_t seed = 1;
  /// Nonzero: reseed the synthetic workload RNG with this value at the
  /// warmup/measurement boundary.  Replicas that differ only in
  /// measure_seed share a bit-identical warmup phase (so one warm
  /// snapshot forks into all of them) yet diverge statistically in the
  /// measurement window — the mechanism behind `--seeds N`.  Zero (the
  /// default) keeps the classic single-stream behaviour.
  std::uint64_t measure_seed = 0;

  [[nodiscard]] int num_nodes() const noexcept {
    return mesh_width * mesh_height;
  }

  /// Validates invariants; returns an error message or empty on success.
  [[nodiscard]] std::string validate() const;

  /// Human-readable one-per-line summary of every knob.
  [[nodiscard]] std::string describe() const;
};

/// Applies "key=value" overrides (e.g. "load=0.5", "design=bless",
/// "routing=wf") to `cfg`.  Returns an error message for an unknown key
/// or malformed value, empty string on success.
std::string apply_override(SimConfig& cfg, std::string_view arg);

/// Applies a span of overrides; stops at the first error.
std::string apply_overrides(SimConfig& cfg, std::span<const char* const> args);

/// Parses a design name ("bless", "scarab", "buffered4", "buffered8",
/// "dxbar", "unified", "vc", "afc", "damq", "minbd"); returns true on
/// success.
bool parse_design(std::string_view name, RouterDesign& out);

/// Parses a routing algorithm name ("dor" or "wf").
bool parse_routing(std::string_view name, RoutingAlgo& out);

/// Parses a traffic pattern name ("ur", "nur", "br", "bf", "cp", "mt",
/// "ps", "nb", "tor").
bool parse_pattern(std::string_view name, TrafficPattern& out);

}  // namespace dxbar
