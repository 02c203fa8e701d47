// Simulation configuration.  One value-semantic struct describes a whole
// experiment point; helpers parse "key=value" command-line overrides so
// examples and benches share one configuration surface.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <variant>

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
  /// 16; the paper's Table III point is 65).
  int tech_node = 65;

  // --- closed-loop workload (workload=closedloop; DESIGN.md section 12) --
  /// Which workload model drives injection.  Synthetic (default) keeps
  /// the paper's open-loop Bernoulli traffic; ClosedLoop switches to the
  /// finite-MLP request-reply client model in src/workload/; Splash runs
  /// the SPLASH-2 substitute (traffic/splash.hpp) until its work is done.
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

  // --- SPLASH-2 workload (workload=splash; DESIGN.md section 4) -------
  /// Application profile of the SPLASH-2 substitute.
  SplashApp splash_app = SplashApp::FFT;
  /// Transactions each node completes before the application is done.
  int transactions = 500;

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
  /// at build time.
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

  bool operator==(const SimConfig&) const = default;
};

// ---- the field table --------------------------------------------------
//
// Each SimConfig member is one config_fields() entry.  Overrides,
// validate(), describe(), result JSON, the snapshot codec, the
// structural fingerprint and the sweep signatures all loop over it.

/// Number of members of the aggregate `T`: the longest brace list of
/// AnyMember values (each converts to any type) that initializes it.
/// Each field table compares it with its rows, so a member added
/// without a row does not compile.
struct AnyMember {
  template <class T>
  operator T() const;
};
template <class T, class... Init>
consteval std::size_t aggregate_member_count() {
  if constexpr (requires { T{Init{}..., AnyMember{}}; }) {
    return aggregate_member_count<T, Init..., AnyMember>();
  } else {
    return sizeof...(Init);
  }
}

/// Role flags of a field (ConfigField::roles).
enum FieldRole : unsigned {
  kStructural = 1u << 0,     ///< in structural_fingerprint()
  kWarmupNeutral = 1u << 1,  ///< ignored by warmup_signature()
  kPricingOnly = 1u << 2,    ///< energy/area only; dynamics_signature()
                             ///< ignores it
  kExecutionOnly = 1u << 3,  ///< override only; never serialized
};

/// One name of an enum-valued (or mesh/torus) field's value.  The first
/// entry for a value is its canonical name, which JSON writes and reads;
/// overrides take it in any case, and later entries as aliases.
struct FieldName {
  std::uint8_t value;
  std::string_view name;
};

struct ConfigField {
  using Member =
      std::variant<int SimConfig::*, double SimConfig::*,
                   std::uint64_t SimConfig::*, bool SimConfig::*,
                   RouterDesign SimConfig::*, RoutingAlgo SimConfig::*,
                   TrafficPattern SimConfig::*, WorkloadKind SimConfig::*,
                   SplashApp SimConfig::*>;

  std::string_view key;  ///< override key and JSON key
  Member member;
  double lo = 0.0;  ///< valid range [lo, hi] of a numeric field
  double hi = 0.0;
  std::span<const int> choices = {};  ///< if set, the only valid values
  std::span<const FieldName> names = {};  ///< enum-valued fields only
  /// Written only where this holds (and then optional on read); null
  /// means always written.
  bool (*write_if)(const SimConfig&) = nullptr;
  unsigned roles = 0;  ///< FieldRole bits

  [[nodiscard]] bool has(unsigned role) const { return (roles & role) != 0; }
  [[nodiscard]] bool named() const { return !names.empty(); }
  /// True when the result JSON carries this field for `cfg`.
  [[nodiscard]] bool written(const SimConfig& cfg) const {
    return !has(kExecutionOnly) && (write_if == nullptr || write_if(cfg));
  }

  /// Calls `fn(cfg.*member)` with the member's own type (`Cfg` is
  /// SimConfig or const SimConfig).
  template <class Cfg, class Fn>
  void visit(Cfg& cfg, Fn&& fn) const {
    std::visit([&](auto m) { fn(cfg.*m); }, member);
  }

  /// Canonical name of the field's value in `cfg` (named fields); empty
  /// when the value has no name.
  [[nodiscard]] std::string_view name_of(const SimConfig& cfg) const;

  /// The value as override text: the canonical name, an integer, or the
  /// shortest decimal that reads back to the same double.
  [[nodiscard]] std::string text(const SimConfig& cfg) const;

  /// Parses `token` into the field of `cfg`; false (cfg untouched) when
  /// malformed.  An integer must be the whole token, fit the member's
  /// type and carry no sign for an unsigned member; a double must be
  /// finite.  A named field takes only a canonical name when
  /// `canonical_only`, else any name in any case.
  bool parse(SimConfig& cfg, std::string_view token,
             bool canonical_only) const;
};

/// Every SimConfig member, in JSON and snapshot order.
std::span<const ConfigField> config_fields();

/// Resets every field that has any of `roles` to its default.
void reset_fields(SimConfig& cfg, unsigned roles);

/// Applies a "key=value" override (e.g. "load=0.5", "design=bless",
/// "routing=wf") to `cfg`; the keys are config_fields()' keys.  Returns
/// an error message for an unknown key or malformed value, empty string
/// on success.
std::string apply_override(SimConfig& cfg, std::string_view arg);

/// Applies a span of overrides; stops at the first error.
std::string apply_overrides(SimConfig& cfg, std::span<const char* const> args);

/// Parses a design name as the `design` override does ("bless",
/// "scarab", "buffered4", "buffered8", "dxbar", "unified", "vc", "afc",
/// "damq", "minbd", or a display name); returns true on success.
bool parse_design(std::string_view name, RouterDesign& out);

/// Parses a routing algorithm name as the `routing` override does ("dor",
/// "wf", "nf", "nl", ...).
bool parse_routing(std::string_view name, RoutingAlgo& out);

}  // namespace dxbar
