// Extension baseline: AFC-style adaptive flow control (Jafri, Hong,
// Thottethodi & Vijaykumar, MICRO'10), the related work the paper calls
// complementary: each router *switches modes* — bufferless deflection
// routing at low load, buffered operation at high load — instead of
// running both paths concurrently like DXbar.
//
// Mode control uses an exponential moving average of the router's
// arrival rate: above `kBufferOn` arrivals/cycle the router buffers,
// below `kBufferOff` (and once its FIFOs drained) it returns to
// bufferless operation.  Links carry no backpressure (as in AFC's
// bufferless substrate); in buffered mode a full FIFO falls back to
// deflection, so no flit is ever lost during mode transitions — the
// per-router handshaking the real AFC needs is exactly the complexity
// the paper criticises, and this model sidesteps it the same way the
// AFC paper's own "lossless transition" mechanism does.
#pragma once

#include <array>

#include "common/fixed_queue.hpp"
#include "router/router.hpp"

namespace dxbar {

class AfcRouter final : public Router {
 public:
  AfcRouter(NodeId id, const RouterEnv& env);

  void step(Cycle now) override;
  [[nodiscard]] int occupancy() const override;
  void save_state(SnapshotWriter& w) const override { fields(*this, w); }
  void load_state(SnapshotReader& r) override {
    fields(*this, r);
    held_ = occupancy();
  }

  /// EMA thresholds in arrivals/cycle (router capacity is ~4).
  static constexpr double kBufferOn = 1.75;
  static constexpr double kBufferOff = 1.0;
  static constexpr double kEmaAlpha = 1.0 / 32.0;

  // --- introspection for tests ---------------------------------------
  [[nodiscard]] bool buffered_mode() const { return buffered_mode_; }
  [[nodiscard]] std::uint64_t mode_switches() const { return mode_switches_; }
  [[nodiscard]] double arrival_ema() const { return arrival_ema_; }

 private:
  template <class Self, class Ar>
  static void fields(Self& self, Ar& ar) {
    ar(self.buffers_, self.buffered_mode_, self.arrival_ema_,
       self.mode_switches_);
  }

  void step_bufferless(Cycle now);
  void step_buffered(Cycle now);
  void route_or_deflect(Flit f, PortsTaken& taken);

  std::array<FixedQueue<Flit>, kNumLinkDirs> buffers_;
  /// Flits in the input buffers, kept so the idle test reads one field
  /// instead of every buffer.  Derived state: load_state rebuilds it,
  /// the snapshot does not carry it.
  int held_ = 0;
  bool buffered_mode_ = false;
  double arrival_ema_ = 0.0;
  std::uint64_t mode_switches_ = 0;
};

}  // namespace dxbar
