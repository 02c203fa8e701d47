// Span recording for dxbar_perf's traced runs.
//
// Spans are recorded from the benchmark's own code, around calls into
// the simulator's public API: each Network::step of a timed window, each
// WorkloadModel callback (through TimedWorkload), set-up, warmup, drain,
// snapshot save/restore and the exp/report calls of a session.  They go
// into a buffer reserved up front, so recording never allocates inside
// a timed window, and are written out only after the run.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "traffic/traffic_gen.hpp"

namespace dxbar::perf {

[[nodiscard]] inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class SpanKind : std::uint16_t {
  Setup,
  Warmup,
  Window,
  Step,
  BeginCycle,
  OnDelivered,
  Drain,
  SnapshotSave,
  SnapshotRestore,
  ExpExecute,
  ExpWriteJson,
  ReportLoad,
  ReportDiff,
};

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index into the buffer, -1 for a root
  std::uint32_t run = 0;     ///< which SpanTracer::begin_run label
  SpanKind kind = SpanKind::Setup;

  [[nodiscard]] std::int64_t duration() const noexcept {
    return end_ns - start_ns;
  }
};

/// Single-threaded span recorder.  All spans the benchmark records open
/// and close on the main thread: the sharded network runs its workload
/// callbacks in the serial phases of a cycle.
class SpanTracer {
 public:
  explicit SpanTracer(std::size_t capacity) { spans_.reserve(capacity); }

  /// Starts a new run (one workload, design and rep); later spans carry
  /// its id.
  void begin_run(std::string label) {
    runs_.push_back(std::move(label));
    run_ = static_cast<std::uint32_t>(runs_.size() - 1);
  }

  /// Opens a span as a child of the innermost open span.  Returns -1,
  /// and counts the span as dropped, once the buffer is full.
  std::int32_t open(SpanKind kind) {
    const std::int32_t parent = stack_.empty() ? -1 : stack_.back();
    if (spans_.size() == spans_.capacity()) {
      ++dropped_;
      stack_.push_back(parent);
      return -1;
    }
    const auto id = static_cast<std::int32_t>(spans_.size());
    spans_.push_back({now_ns(), 0, parent, run_, kind});
    stack_.push_back(id);
    return id;
  }

  void close(std::int32_t id) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    stack_.pop_back();
  }

  /// Forgets every span and run but keeps the reserved buffer.
  void clear() {
    spans_.clear();
    stack_.clear();
    runs_.clear();
    run_ = 0;
  }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

  /// Self time of spans [first, end): each one's duration minus the part
  /// its direct children cover (children never overlap: one thread,
  /// strict nesting).  Element i belongs to span first + i.
  [[nodiscard]] std::vector<std::int64_t> self_times(std::size_t first) const;

  /// Appends every span as one JSON object per line: the run labels
  /// first, then {run, id, parent, name, start_ns, end_ns} per span.
  /// Returns false on a write error.
  bool write_jsonl(std::FILE* out, const std::string& workload) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
  std::vector<std::string> runs_;
  std::uint32_t run_ = 0;
  std::uint64_t dropped_ = 0;
};

/// Opens a span for its lifetime; does nothing with a null tracer, which
/// is how untraced runs pass through the same code.
class ScopedSpan {
 public:
  ScopedSpan(SpanTracer* t, SpanKind kind)
      : tracer_(t), id_(t != nullptr ? t->open(kind) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanTracer* tracer_;
  std::int32_t id_;
};

/// Forwarding WorkloadModel that records a span around each begin_cycle
/// and on_packet_delivered of the wrapped workload.  Traced runs attach
/// it in place of the workload; untraced runs attach the workload itself.
class TimedWorkload final : public WorkloadModel {
 public:
  TimedWorkload(WorkloadModel& inner, SpanTracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  void begin_cycle(Cycle now, Injector& inject) override {
    ScopedSpan s(&tracer_, SpanKind::BeginCycle);
    inner_.begin_cycle(now, inject);
  }
  void on_packet_delivered(const PacketRecord& rec, Cycle now,
                           Injector& inject) override {
    ScopedSpan s(&tracer_, SpanKind::OnDelivered);
    inner_.on_packet_delivered(rec, now, inject);
  }
  [[nodiscard]] bool finished() const override { return inner_.finished(); }
  void set_injection_enabled(bool on) override {
    inner_.set_injection_enabled(on);
  }
  void fill_run_stats(RunStats& out) const override {
    inner_.fill_run_stats(out);
  }
  [[nodiscard]] bool quiescent() const override { return inner_.quiescent(); }
  [[nodiscard]] bool snapshot_supported() const override {
    return inner_.snapshot_supported();
  }
  void save_state(SnapshotWriter& w) const override { inner_.save_state(w); }
  void load_state(SnapshotReader& r) override { inner_.load_state(r); }

 private:
  WorkloadModel& inner_;
  SpanTracer& tracer_;
};

}  // namespace dxbar::perf
