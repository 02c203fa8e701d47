// Energy and area accounting on top of the parametric component models
// (power/component_models.hpp).
//
// EnergyParams/AreaParams are the per-design operating point the
// simulator consumes: derive_energy_params()/derive_area_params()
// assemble them from a SimConfig (tech node, flit width, buffer depth,
// crossbar radix from the topology) — there is no constants table.  At
// the paper's 65 nm / 1.0 V / 1 GHz / 128-bit point the derived values
// reproduce Table III: crossbar 13 pJ/flit (15 pJ for the unified
// transmission-gate crossbar), link 36 pJ, buffer write/read
// 2.8/2.2 pJ, and the DXbar = 1.33x / Unified = 1.25x Flit-Bless area
// ratios (guarded by tests/power_test.cpp).
#pragma once

#include <cstdint>

#include "common/config.hpp"
#include "common/types.hpp"
#include "snapshot/snapshot.hpp"

namespace dxbar {

/// Per-event energies in picojoules per flit event, at one derived
/// operating point (design + tech node + flit width + buffer depth).
struct EnergyParams {
  double crossbar_pj = 0.0;      ///< one crossbar traversal
  double link_pj = 0.0;          ///< one link traversal
  double buffer_write_pj = 0.0;  ///< one FIFO write
  double buffer_read_pj = 0.0;   ///< one FIFO read
  double nack_hop_pj = 0.0;      ///< one hop on the 1-bit NACK network
};

/// Router area decomposition in mm^2 at one derived operating point.
struct AreaParams {
  double crossbar_mm2 = 0.0;          ///< one matrix crossbar
  double unified_crossbar_mm2 = 0.0;  ///< matrix + transmission gates
  double buffer_bank_mm2 = 0.0;       ///< the input FIFO bank
  double damq_buffer_mm2 = 0.0;       ///< DAMQ shared pool + pointers
  double side_buffer_mm2 = 0.0;       ///< minBD side buffer + redir mux
  double links_mm2 = 0.0;             ///< four input links
  double nack_logic_mm2 = 0.0;        ///< SCARAB NACK circuit switch
};

/// Crossbar radix derived from the topology: every mesh/torus router
/// switches its link ports plus the local injection/ejection port.
[[nodiscard]] int crossbar_radix(const SimConfig& cfg) noexcept;

/// Assembles the per-event energies for `cfg.design` from the
/// component models at `cfg.tech_node` / `cfg.flit_bits` /
/// `cfg.buffer_depth` (Buffered 8 charges its two-bank organisation's
/// longer bitlines; the unified crossbar charges its transmission
/// gates).
[[nodiscard]] EnergyParams derive_energy_params(const SimConfig& cfg);

/// Assembles the component areas for `cfg` (design-independent: the
/// per-design composition is router_area_mm2).
[[nodiscard]] AreaParams derive_area_params(const SimConfig& cfg);

/// Total per-router area for a design (paper Table III column 1).
[[nodiscard]] double router_area_mm2(RouterDesign design,
                                     const AreaParams& p);

/// Static power one router of cfg.design burns: its composed area times
/// the node's leakage density (TechParams::leakage_mw_per_mm2).
[[nodiscard]] double router_leakage_mw(const SimConfig& cfg);

/// Static energy the whole network leaks over `cycles` router cycles at
/// the node's nominal clock, in nJ.  Reported as the *separate*
/// RunStats::energy_leakage_nj column — never folded into the dynamic
/// totals the paper's Table III pins at 65 nm.
[[nodiscard]] double network_leakage_nj(const SimConfig& cfg, Cycle cycles);

/// Critical-path timing reported by the paper (ns; both < 1 ns cycle).
struct TimingParams {
  double link_traversal_ns = 0.47;
  double unified_switch_ns = 0.27;
};

/// Per-category energy accumulator.  Routers report events; the meter
/// counts them and converts to nanojoules on demand using the derived
/// parameters it was constructed with.  Recording is gated by
/// `set_enabled` so only the measurement window accumulates.
///
/// Counting integer events instead of summing doubles makes the meter
/// fold-order independent: sharded runs keep one meter per shard and
/// absorb() them into the main meter each cycle, and because u64
/// addition is associative the totals are bit-identical for every shard
/// count — a double accumulator would pick up shard-dependent rounding.
class EnergyMeter {
 public:
  explicit EnergyMeter(const EnergyParams& params) : params_(params) {}
  explicit EnergyMeter(const SimConfig& cfg)
      : EnergyMeter(derive_energy_params(cfg)) {}

  void set_enabled(bool on) noexcept { enabled_ = on; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  void crossbar_traversal() noexcept {
    if (enabled_) ++crossbar_events_;
  }
  void link_traversal() noexcept {
    if (enabled_) ++link_events_;
  }
  void buffer_write() noexcept {
    if (enabled_) ++buffer_writes_;
  }
  void buffer_read() noexcept {
    if (enabled_) ++buffer_reads_;
  }
  void nack_hops(int hops) noexcept {
    if (enabled_) nack_hop_events_ += static_cast<std::uint64_t>(hops);
  }

  [[nodiscard]] double buffer_nj() const noexcept {
    return (static_cast<double>(buffer_writes_) * params_.buffer_write_pj +
            static_cast<double>(buffer_reads_) * params_.buffer_read_pj) *
           1e-3;
  }
  [[nodiscard]] double crossbar_nj() const noexcept {
    return static_cast<double>(crossbar_events_) * params_.crossbar_pj * 1e-3;
  }
  [[nodiscard]] double link_nj() const noexcept {
    return static_cast<double>(link_events_) * params_.link_pj * 1e-3;
  }
  [[nodiscard]] double control_nj() const noexcept {
    return static_cast<double>(nack_hop_events_) * params_.nack_hop_pj * 1e-3;
  }
  [[nodiscard]] double total_nj() const noexcept {
    return buffer_nj() + crossbar_nj() + link_nj() + control_nj();
  }

  /// Drains `other`'s counts into this meter (gated by this meter's
  /// enable flag, mirroring the per-event gate).  The source is zeroed
  /// either way so a disabled window cannot leak into a later fold.
  void absorb(EnergyMeter& other) noexcept {
    if (enabled_) {
      crossbar_events_ += other.crossbar_events_;
      link_events_ += other.link_events_;
      buffer_writes_ += other.buffer_writes_;
      buffer_reads_ += other.buffer_reads_;
      nack_hop_events_ += other.nack_hop_events_;
    }
    other.reset();
  }

  void reset() noexcept {
    crossbar_events_ = link_events_ = 0;
    buffer_writes_ = buffer_reads_ = nack_hop_events_ = 0;
  }

  [[nodiscard]] const EnergyParams& params() const noexcept { return params_; }

  /// This meter's event counts priced at `params` instead: the same
  /// events costed at another operating point (tech node, flit width).
  [[nodiscard]] EnergyMeter priced_at(const EnergyParams& params) const {
    EnergyMeter m = *this;
    m.params_ = params;
    return m;
  }

  // Snapshot protocol: the gate flag and the five event counts (the
  // per-event parameters are configuration).  Version 2 layout — the v1
  // stream stored four double accumulators instead, so v1 snapshots are
  // rejected here rather than silently misread.
  void save(SnapshotWriter& w) const {
    w.boolean(enabled_);
    w.u64(crossbar_events_);
    w.u64(link_events_);
    w.u64(buffer_writes_);
    w.u64(buffer_reads_);
    w.u64(nack_hop_events_);
  }
  void load(SnapshotReader& r) {
    if (r.version() < 2) {
      throw SnapshotError(
          "energy meter requires snapshot version >= 2 (v1 stored double "
          "accumulators; re-record the checkpoint)");
    }
    enabled_ = r.boolean();
    crossbar_events_ = r.u64();
    link_events_ = r.u64();
    buffer_writes_ = r.u64();
    buffer_reads_ = r.u64();
    nack_hop_events_ = r.u64();
  }

 private:
  EnergyParams params_;
  bool enabled_ = true;
  std::uint64_t crossbar_events_ = 0;
  std::uint64_t link_events_ = 0;
  std::uint64_t buffer_writes_ = 0;
  std::uint64_t buffer_reads_ = 0;
  std::uint64_t nack_hop_events_ = 0;
};

}  // namespace dxbar
