// Packet traces: the text format and its open-loop replay workload.
//
// Text format: one packet per line, "<cycle> <src> <dst> <length>", '#'
// comments and blank lines ignored, entries sorted by cycle.  Traces
// recorded from one design (or produced externally) can be replayed
// open-loop against any other design for apples-to-apples comparisons.
#pragma once

#include <iosfwd>
#include <span>
#include <stdexcept>
#include <vector>

#include "traffic/traffic_gen.hpp"

namespace dxbar {

struct TraceEntry {
  Cycle cycle = 0;
  NodeId src = 0;
  NodeId dst = 0;
  int length = 1;

  friend bool operator==(const TraceEntry&, const TraceEntry&) = default;
};

/// A trace line that cannot be replayed: other than four non-negative
/// integers, a length outside [1, 65535], or a node id outside the mesh.
/// The message names the line.
class TraceError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Parses a text trace for a network of `num_nodes` nodes; throws
/// TraceError on a malformed line.  Entries are returned sorted by
/// cycle (stable).
std::vector<TraceEntry> read_trace(std::istream& is, NodeId num_nodes);

/// Writes entries in the canonical text format.
void write_trace(std::ostream& os, std::span<const TraceEntry> entries);

/// Replays a trace open-loop: each entry is injected at its cycle.
class TraceWorkload final : public WorkloadModel {
 public:
  explicit TraceWorkload(std::vector<TraceEntry> entries);

  void begin_cycle(Cycle now, Injector& inject) override;
  [[nodiscard]] bool finite() const override { return true; }
  /// All entries have been injected (the network may still be draining).
  [[nodiscard]] bool finished() const override {
    return next_ >= entries_.size();
  }
  void set_injection_enabled(bool on) override { enabled_ = on; }

 private:
  std::vector<TraceEntry> entries_;
  std::size_t next_ = 0;
  bool enabled_ = true;
};

/// Records every injected packet; used to capture traces from synthetic
/// or SPLASH workloads for later replay.
class RecordingInjector final : public Injector {
 public:
  explicit RecordingInjector(Injector& inner) : inner_(inner) {}

  PacketId inject_packet(NodeId src, NodeId dst, int length,
                         Cycle now) override {
    entries_.push_back({now, src, dst, length});
    return inner_.inject_packet(src, dst, length, now);
  }

  [[nodiscard]] const std::vector<TraceEntry>& entries() const {
    return entries_;
  }

 private:
  Injector& inner_;
  std::vector<TraceEntry> entries_;
};

}  // namespace dxbar
