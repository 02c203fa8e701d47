#include "power/energy_model.hpp"

#include "power/component_models.hpp"

namespace dxbar {
namespace {

/// Banks of the row's storage: a FIFO router has one bank of
/// kNumLinkDirs FIFOs per kNumLinkDirs slots of depth (Buffered 8: two),
/// a pool or a side buffer is one bank, a bufferless router none.
int buffer_banks(const DesignRow& row) {
  if (row.buffer == BufferKind::FifoBank) {
    return row.slots_per_depth / kNumLinkDirs;
  }
  return row.buffer == BufferKind::None ? 0 : 1;
}

template <class Model>
void price_buffer(const Model& m, EnergyParams& p) {
  p.buffer_write_pj = m.write_pj();
  p.buffer_read_pj = m.read_pj();
}

}  // namespace

EnergyParams derive_energy_params(const SimConfig& cfg) {
  const TechParams t = TechParams::node(cfg.tech_node);
  const DesignRow& row = design_row(cfg.design);
  const int bits = cfg.flit_bits;
  const int depth = cfg.buffer_depth;

  EnergyParams p;
  // Transmission gates cut every output bus once per port so the
  // unified FIFO bank can tap it (paper: 15 pJ vs 13 pJ/flit).
  p.crossbar_pj =
      row.crossbar == CrossbarType::Segmented
          ? SegmentedCrossbarModel(kNumPorts, kNumPorts, bits, kNumPorts, t)
                .traversal_pj()
          : MatrixCrossbarModel(kNumPorts, kNumPorts, bits, t).traversal_pj();
  p.link_pj = LinkModel(bits, t).traversal_pj();
  if (row.buffer == BufferKind::DamqPool) {
    // Shared-pool accesses span the whole pool's bitlines and carry the
    // linked-list pointer word alongside every flit.
    price_buffer(DamqBufferModel(kNumLinkDirs, kNumLinkDirs * depth, bits, t),
                 p);
  } else if (row.buffer == BufferKind::SideBuffer) {
    // Captures/redirections pay the side FIFO plus the redirection mux
    // that steers flits past the four link inputs.
    price_buffer(SideBufferModel(depth, bits, kNumLinkDirs, t), p);
  } else if (row.buffer == BufferKind::FifoBank) {
    // A router's FIFO banks share one access port per input: the bitline
    // spans all of them, so Buffered 8's two banks pay the doubled
    // depth's capacitance.
    price_buffer(
        FifoBufferModel(kNumLinkDirs, buffer_banks(row) * depth, bits, t), p);
  }
  // A bufferless router has no buffer to price: its accesses cost 0 pJ.
  p.nack_hop_pj = NackLinkModel(t).hop_pj();
  return p;
}

AreaParams derive_area_params(const SimConfig& cfg) {
  const TechParams t = TechParams::node(cfg.tech_node);
  const int bits = cfg.flit_bits;

  AreaParams a;
  a.crossbar_mm2 =
      MatrixCrossbarModel(kNumPorts, kNumPorts, bits, t).area_mm2();
  a.unified_crossbar_mm2 =
      SegmentedCrossbarModel(kNumPorts, kNumPorts, bits, kNumPorts, t)
          .area_mm2();
  a.buffer_bank_mm2 =
      FifoBufferModel(kNumLinkDirs, cfg.buffer_depth, bits, t).area_mm2();
  a.damq_buffer_mm2 =
      DamqBufferModel(kNumLinkDirs, kNumLinkDirs * cfg.buffer_depth, bits, t)
          .area_mm2();
  a.side_buffer_mm2 =
      SideBufferModel(cfg.buffer_depth, bits, kNumLinkDirs, t).area_mm2();
  a.links_mm2 = static_cast<double>(kNumLinkDirs) *
                LinkModel(bits, t).area_mm2();
  a.nack_logic_mm2 = NackLinkModel(t).area_mm2();
  return a;
}

double router_area_mm2(RouterDesign design, const AreaParams& p) {
  const DesignRow& row = design_row(design);
  const double crossbar = row.crossbar == CrossbarType::Segmented
                              ? p.unified_crossbar_mm2
                              : p.crossbar_mm2;
  const double bank = row.buffer == BufferKind::DamqPool ? p.damq_buffer_mm2
                      : row.buffer == BufferKind::SideBuffer
                          ? p.side_buffer_mm2
                          : p.buffer_bank_mm2;
  // Crossbars, storage, links, then the control block (every control
  // block occupies the NACK circuit's footprint).  An absent term adds
  // an exact zero.
  return row.crossbars * crossbar + buffer_banks(row) * bank + p.links_mm2 +
         (row.control == ControlBlock::None ? 0.0 : p.nack_logic_mm2);
}

double router_leakage_mw(const SimConfig& cfg) {
  const TechParams t = TechParams::node(cfg.tech_node);
  return router_area_mm2(cfg.design, derive_area_params(cfg)) *
         t.leakage_mw_per_mm2;
}

double network_leakage_nj(const SimConfig& cfg, Cycle cycles) {
  const TechParams t = TechParams::node(cfg.tech_node);
  // mW * ns = pJ; one cycle is 1/freq_ghz ns at the nominal clock.
  const double ns = static_cast<double>(cycles) / t.freq_ghz;
  return static_cast<double>(cfg.num_nodes()) * router_leakage_mw(cfg) * ns *
         1e-3;
}

}  // namespace dxbar
