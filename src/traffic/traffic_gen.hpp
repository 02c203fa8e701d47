// Workload abstraction: how packets enter the network.
//
// Open-loop synthetic traffic (Figs 5-8, 11-12) injects by a Bernoulli
// process at a configured offered load; closed-loop workloads (the
// SPLASH-2 substitute, Figs 9-10) react to delivered packets and finish
// after a fixed amount of work.
#pragma once

#include "common/config.hpp"
#include "common/flit.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "snapshot/snapshot.hpp"
#include "topology/mesh.hpp"
#include "traffic/patterns.hpp"

namespace dxbar {

/// Provided by the network: creates a packet's flits in the source queue
/// of `src` and returns the packet id for correlation.
class Injector {
 public:
  virtual ~Injector() = default;
  virtual PacketId inject_packet(NodeId src, NodeId dst, int length,
                                 Cycle now) = 0;

  /// Class-tagged injection for request-reply workloads.  The default
  /// forwards to the classic overload (dropping the class), so injector
  /// implementations that predate message classes keep working; the
  /// Network overrides this to stamp the class on every flit.
  virtual PacketId inject_packet(NodeId src, NodeId dst, int length,
                                 Cycle now, MsgClass cls) {
    (void)cls;
    return inject_packet(src, dst, length, now);
  }
};

class WorkloadModel {
 public:
  virtual ~WorkloadModel() = default;

  /// Called at the start of every cycle; enqueue new packets here.
  virtual void begin_cycle(Cycle now, Injector& inject) = 0;

  /// A packet finished reassembly at its destination.
  virtual void on_packet_delivered(const PacketRecord& rec, Cycle now,
                                   Injector& inject) {
    (void)rec;
    (void)now;
    (void)inject;
  }

  /// True for a workload with a fixed amount of work (a SPLASH
  /// application, a trace replay): its run ends at the first cycle
  /// boundary where it is finished() and the network is idle, and has
  /// no drain phase.  Asked once per phase call, never per cycle.
  [[nodiscard]] virtual bool finite() const { return false; }

  /// A finite workload reports completion; open-loop never finishes.
  [[nodiscard]] virtual bool finished() const { return false; }

  /// Open-loop drain control: the runner disables injection after the
  /// measurement window.
  virtual void set_injection_enabled(bool on) { (void)on; }

  /// Merges workload-level telemetry (e.g. the closed-loop end-to-end
  /// request-latency distribution) into a finished run's stats.  The
  /// default contributes nothing.
  virtual void fill_run_stats(RunStats& out) const { (void)out; }

  /// True when the workload holds no deferred work of its own (e.g.
  /// served requests waiting out their service delay before the reply
  /// injects).  The drain loop runs until the network is idle AND the
  /// workload is quiescent, so workload-held transactions still
  /// complete after injection is disabled.
  [[nodiscard]] virtual bool quiescent() const { return true; }

  // ---- snapshot protocol ----------------------------------------------
  //
  // A snapshotable workload serializes its cursor (RNG stream position,
  // enable flag) so a restored network resumes with the exact injection
  // sequence of an uninterrupted run.  Workloads with state the
  // snapshot format does not cover (the SPLASH closed-loop machine,
  // trace replay) keep the throwing defaults.

  [[nodiscard]] virtual bool snapshot_supported() const { return false; }
  virtual void save_state(SnapshotWriter& w) const {
    (void)w;
    throw SnapshotError("workload does not support snapshots");
  }
  virtual void load_state(SnapshotReader& r) {
    (void)r;
    throw SnapshotError("workload does not support snapshots");
  }
};

/// Bernoulli open-loop injection of one of the nine synthetic patterns.
/// Each node independently starts a packet with probability
/// offered_load / packet_length per cycle, so the offered *flit* rate
/// per node equals the configured load.  During the warmup phase the
/// probability is derived from cfg.warmup_load instead when that is set
/// (>= 0): every Bernoulli trial consumes exactly one RNG draw whatever
/// its probability, so runs that share the warmup rate draw identical
/// streams through warmup regardless of their measurement load — the
/// property warm-start sweeps rely on.
class SyntheticWorkload final : public WorkloadModel {
 public:
  SyntheticWorkload(const SimConfig& cfg, const Mesh& mesh);

  void begin_cycle(Cycle now, Injector& inject) override;
  void set_injection_enabled(bool on) override { enabled_ = on; }

  [[nodiscard]] bool snapshot_supported() const override { return true; }
  void save_state(SnapshotWriter& w) const override { fields(*this, w); }
  void load_state(SnapshotReader& r) override { fields(*this, r); }

 private:
  template <class Self, class Ar>
  static void fields(Self& self, Ar& ar) {
    ar(self.rng_, self.enabled_);
  }

  const Mesh& mesh_;
  TrafficPattern pattern_;
  double packet_probability_;
  double warmup_probability_;
  Cycle warmup_end_;
  int packet_length_;
  std::uint64_t measure_seed_;
  Rng rng_;
  bool enabled_ = true;
};

}  // namespace dxbar
