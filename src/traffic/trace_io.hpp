// Packet trace formats and replay workloads.
//
// Text format: one packet per line, "<cycle> <src> <dst> <length>", '#'
// comments and blank lines ignored, entries sorted by cycle.  Traces
// recorded from one design (or produced externally) can be replayed
// open-loop against any other design for apples-to-apples comparisons.
//
// Binary streaming format ("DXTR"): a 16-byte little-endian header —
// magic "DXTR" (u32), version (u16), endian marker 0xFEFF (u16), record
// count (u64) — followed by `count` fixed 20-byte records (cycle u64,
// src u32, dst u32, length u32), cycles non-decreasing.  The writer
// stamps the count sentinel ~0 first and backpatches the real count on
// finish(), so a trace from a crashed producer is detected as truncated
// instead of replaying a silent prefix.  Reader and writer both work in
// bounded chunks, so multi-GB traces stream in O(chunk) memory.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <stdexcept>
#include <string>
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

/// Typed trace I/O failure.  Derives from std::runtime_error so callers
/// that only care about "trace is bad" keep working; callers that care
/// WHY (tests, tooling) switch on kind().
class TraceError : public std::runtime_error {
 public:
  enum class Kind {
    Truncated,        ///< file ends mid-record, or an unfinished writer
    CorruptHeader,    ///< bad magic or endian marker
    VersionMismatch,  ///< header version this reader does not understand
    Malformed,        ///< bad field values (length outside [1, 65535],
                      ///< cycle regression)
  };

  TraceError(Kind kind, const std::string& what)
      : std::runtime_error(what), kind_(kind) {}

  [[nodiscard]] Kind kind() const { return kind_; }

 private:
  Kind kind_;
};

constexpr std::string_view to_string(TraceError::Kind k) noexcept {
  switch (k) {
    case TraceError::Kind::Truncated: return "truncated";
    case TraceError::Kind::CorruptHeader: return "corrupt-header";
    case TraceError::Kind::VersionMismatch: return "version-mismatch";
    case TraceError::Kind::Malformed: return "malformed";
  }
  return "?";
}

/// Parses a text trace; throws TraceError (Kind::Malformed) on bad
/// input.  Entries are returned sorted by cycle (stable).
std::vector<TraceEntry> read_trace(std::istream& is);

/// Writes entries in the canonical text format.
void write_trace(std::ostream& os, std::span<const TraceEntry> entries);

/// Current binary trace format version (header field).
inline constexpr std::uint16_t kTraceFormatVersion = 1;

/// Incremental writer for the binary "DXTR" format.  Records must be
/// appended in non-decreasing cycle order with length in [1, 65535]
/// (TraceError Kind::Malformed otherwise).  The header is written with a count
/// sentinel that finish() backpatches, so the stream must be seekable;
/// a writer destroyed without finish() leaves the sentinel in place and
/// readers reject the trace as truncated.
class StreamingTraceWriter {
 public:
  static constexpr std::size_t kDefaultChunk = 4096;  ///< entries

  explicit StreamingTraceWriter(std::ostream& out,
                                std::size_t chunk = kDefaultChunk);

  void append(const TraceEntry& e);

  /// Flushes buffered records and backpatches the header count.
  /// Idempotent; append() after finish() throws.
  void finish();

  [[nodiscard]] std::uint64_t entries_written() const { return count_; }

 private:
  void flush_chunk();

  std::ostream& out_;
  std::size_t chunk_;
  std::vector<std::uint8_t> buf_;
  std::uint64_t count_ = 0;
  Cycle last_cycle_ = 0;
  bool finished_ = false;
};

/// Chunked reader for the binary "DXTR" format: holds at most `chunk`
/// decoded entries in memory regardless of trace size.  Header and
/// record problems throw TraceError with the precise kind.
class StreamingTraceReader {
 public:
  static constexpr std::size_t kDefaultChunk = 4096;  ///< entries

  explicit StreamingTraceReader(std::istream& in,
                                std::size_t chunk = kDefaultChunk);

  /// Advances to the next entry.  Returns false at a clean end of
  /// trace; throws TraceError on truncation or malformed records.
  bool next(TraceEntry& out);

  [[nodiscard]] std::uint64_t total_entries() const { return total_; }
  [[nodiscard]] std::uint64_t entries_read() const { return consumed_; }
  /// Entries currently decoded in memory — the O(chunk) bound.
  [[nodiscard]] std::size_t buffered_entries() const {
    return buf_.size() - pos_;
  }

 private:
  void refill();

  std::istream& in_;
  std::size_t chunk_;
  std::uint64_t total_ = 0;
  std::uint64_t consumed_ = 0;
  std::vector<TraceEntry> buf_;
  std::size_t pos_ = 0;
  Cycle last_cycle_ = 0;
};

/// Convenience: streams the whole binary trace into a vector (use the
/// reader directly when the trace may not fit in memory).
std::vector<TraceEntry> read_trace_binary(std::istream& is);

/// Convenience: writes `entries` (already cycle-sorted) as one binary
/// trace, finish() included.
void write_trace_binary(std::ostream& os, std::span<const TraceEntry> entries);

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

  // Snapshot protocol: the replay cursor (the entry list itself is
  // configuration the caller reconstructs).
  [[nodiscard]] bool snapshot_supported() const override { return true; }
  void save_state(SnapshotWriter& w) const override {
    w.u64(next_);
    w.boolean(enabled_);
  }
  void load_state(SnapshotReader& r) override {
    next_ = r.u64();
    enabled_ = r.boolean();
  }

 private:
  std::vector<TraceEntry> entries_;
  std::size_t next_ = 0;
  bool enabled_ = true;
};

/// Replays a binary trace straight off the stream: the workload only
/// ever holds the reader's bounded chunk plus one lookahead entry, so a
/// multi-GB trace replays in O(chunk) memory.  The reader (and its
/// stream) must outlive the workload.  Snapshotting is not supported —
/// the replay position lives in the external stream.
class StreamingTraceWorkload final : public WorkloadModel {
 public:
  explicit StreamingTraceWorkload(StreamingTraceReader& reader);

  void begin_cycle(Cycle now, Injector& inject) override;
  [[nodiscard]] bool finite() const override { return true; }
  [[nodiscard]] bool finished() const override { return !have_pending_; }
  void set_injection_enabled(bool on) override { enabled_ = on; }

 private:
  StreamingTraceReader& reader_;
  TraceEntry pending_{};
  bool have_pending_ = false;
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
