// Binary "DXTR" streaming trace format: round-trips, the typed error
// paths (truncation, corrupt header, version mismatch, malformed
// records), byte-mutation fuzzing over a golden trace, the O(chunk)
// memory bound, and replay equivalence between the streaming and the
// in-memory trace workloads.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "sim/sim_runner.hpp"
#include "stats_compare.hpp"
#include "traffic/trace_io.hpp"

namespace dxbar {
namespace {

std::vector<TraceEntry> make_trace(std::size_t n, NodeId nodes = 16) {
  std::vector<TraceEntry> entries;
  entries.reserve(n);
  Cycle cycle = 0;
  for (std::size_t i = 0; i < n; ++i) {
    cycle += i % 3;  // non-decreasing, with repeats
    const NodeId src = static_cast<NodeId>(i % nodes);
    const NodeId dst = static_cast<NodeId>((i * 7 + 1) % nodes);
    entries.push_back({cycle, src, dst, static_cast<int>(i % 4) + 1});
  }
  return entries;
}

std::string golden_bytes(std::size_t n) {
  std::stringstream ss;
  const std::vector<TraceEntry> entries = make_trace(n);
  write_trace_binary(ss, entries);
  return ss.str();
}

TraceError::Kind read_kind(const std::string& bytes) {
  std::stringstream ss(bytes);
  try {
    StreamingTraceReader reader(ss);
    TraceEntry e;
    while (reader.next(e)) {
    }
  } catch (const TraceError& err) {
    return err.kind();
  }
  ADD_FAILURE() << "expected a TraceError";
  return TraceError::Kind::Malformed;
}

// --- round trips ---------------------------------------------------------

TEST(TraceBinaryIo, RoundTripPreservesEveryEntry) {
  const std::vector<TraceEntry> entries = make_trace(1000);
  std::stringstream ss;
  write_trace_binary(ss, entries);
  EXPECT_EQ(ss.str().size(), 16 + 1000 * 20u);  // fixed-size records

  const std::vector<TraceEntry> back = read_trace_binary(ss);
  EXPECT_EQ(back, entries);
}

TEST(TraceBinaryIo, WriterCountsAndBackpatches) {
  std::stringstream ss;
  StreamingTraceWriter w(ss, /*chunk=*/8);
  const std::vector<TraceEntry> entries = make_trace(100);
  for (const TraceEntry& e : entries) w.append(e);
  EXPECT_EQ(w.entries_written(), 100u);
  w.finish();
  w.finish();  // idempotent

  StreamingTraceReader r(ss);
  EXPECT_EQ(r.total_entries(), 100u);
}

TEST(TraceBinaryIo, EmptyTraceIsValid) {
  std::stringstream ss;
  write_trace_binary(ss, {});
  std::stringstream in(ss.str());
  StreamingTraceReader r(in);
  EXPECT_EQ(r.total_entries(), 0u);
  TraceEntry e;
  EXPECT_FALSE(r.next(e));
}

// --- writer validation ---------------------------------------------------

TEST(TraceBinaryIo, WriterRejectsMalformedAppends) {
  std::stringstream ss;
  StreamingTraceWriter w(ss);
  w.append({10, 0, 1, 1});
  try {
    w.append({10, 0, 1, 0});  // length < 1
    FAIL() << "length 0 accepted";
  } catch (const TraceError& e) {
    EXPECT_EQ(e.kind(), TraceError::Kind::Malformed);
  }
  try {
    w.append({10, 0, 1, 65536});  // longer than a Flit can describe
    FAIL() << "length 65536 accepted";
  } catch (const TraceError& e) {
    EXPECT_EQ(e.kind(), TraceError::Kind::Malformed);
  }
  try {
    w.append({9, 0, 1, 1});  // cycle regression
    FAIL() << "cycle regression accepted";
  } catch (const TraceError& e) {
    EXPECT_EQ(e.kind(), TraceError::Kind::Malformed);
  }
  w.finish();
  EXPECT_THROW(w.append({11, 0, 1, 1}), TraceError);
}

// --- typed reader error paths --------------------------------------------

TEST(TraceBinaryIo, UnfinishedWriterReadsAsTruncated) {
  std::stringstream ss;
  StreamingTraceWriter w(ss, /*chunk=*/4);
  for (const TraceEntry& e : make_trace(10)) w.append(e);
  // No finish(): the count sentinel stays in the header.
  EXPECT_EQ(read_kind(ss.str()), TraceError::Kind::Truncated);
}

TEST(TraceBinaryIo, ShortHeaderIsTruncated) {
  EXPECT_EQ(read_kind(""), TraceError::Kind::Truncated);
  EXPECT_EQ(read_kind(golden_bytes(5).substr(0, 9)),
            TraceError::Kind::Truncated);
}

TEST(TraceBinaryIo, TruncatedBodyIsTruncated) {
  const std::string bytes = golden_bytes(50);
  // Mid-record and whole-records-missing truncations both count.
  EXPECT_EQ(read_kind(bytes.substr(0, bytes.size() - 7)),
            TraceError::Kind::Truncated);
  EXPECT_EQ(read_kind(bytes.substr(0, 16 + 20 * 20)),
            TraceError::Kind::Truncated);
}

TEST(TraceBinaryIo, CorruptMagicOrEndianIsCorruptHeader) {
  std::string bad_magic = golden_bytes(5);
  bad_magic[0] = 'X';
  EXPECT_EQ(read_kind(bad_magic), TraceError::Kind::CorruptHeader);

  std::string bad_endian = golden_bytes(5);
  bad_endian[6] = '\x00';  // endian marker bytes are 6..7
  EXPECT_EQ(read_kind(bad_endian), TraceError::Kind::CorruptHeader);
}

TEST(TraceBinaryIo, UnknownVersionIsVersionMismatch) {
  std::string bytes = golden_bytes(5);
  bytes[4] = 2;  // version field bytes are 4..5
  EXPECT_EQ(read_kind(bytes), TraceError::Kind::VersionMismatch);
}

TEST(TraceBinaryIo, MalformedRecordsAreMalformed) {
  // Zero out a record's length field (header 16 + cycle 8 + src/dst 8).
  std::string zero_len = golden_bytes(5);
  for (int i = 0; i < 4; ++i) zero_len[16 + 16 + i] = '\x00';
  EXPECT_EQ(read_kind(zero_len), TraceError::Kind::Malformed);
  std::string long_len = golden_bytes(5);
  for (int i = 0; i < 4; ++i) long_len[16 + 16 + i] = "\x00\x00\x01\x00"[i];
  EXPECT_EQ(read_kind(long_len), TraceError::Kind::Malformed);  // 65536

  // Make a later record's cycle regress below its predecessor's.
  std::string regress = golden_bytes(5);
  for (int i = 0; i < 8; ++i) regress[16 + 4 * 20 + i] = '\x00';
  EXPECT_EQ(read_kind(regress), TraceError::Kind::Malformed);
}

TEST(TraceBinaryIo, FuzzedGoldenNeverEscapesTypedErrors) {
  // Every single-byte mutation of a golden trace must either replay
  // cleanly (data bytes are free to change) or throw TraceError — no
  // other exception, no crash, no over-read past the claimed count.
  const std::string golden = golden_bytes(50);
  for (std::size_t i = 0; i < golden.size(); ++i) {
    for (const unsigned char delta : {0x01, 0x80, 0xFF}) {
      std::string mutated = golden;
      mutated[i] = static_cast<char>(mutated[i] ^ delta);
      std::stringstream ss(mutated);
      try {
        StreamingTraceReader reader(ss, /*chunk=*/7);
        TraceEntry e;
        std::uint64_t seen = 0;
        while (reader.next(e)) ++seen;
        EXPECT_EQ(seen, reader.total_entries())
            << "byte " << i << " delta " << int{delta};
        EXPECT_LE(reader.buffered_entries(), 7u);
      } catch (const TraceError&) {
        // Expected for structural mutations.
      }
    }
  }
}

// --- O(chunk) memory -----------------------------------------------------

TEST(TraceBinaryIo, LargeTraceStreamsInBoundedMemory) {
  // 200k records (~4 MB) written and read through 512-entry chunks:
  // the reader must never hold more than one chunk of decoded entries,
  // which is the whole point of the streaming format.
  constexpr std::size_t kEntries = 200'000;
  constexpr std::size_t kChunk = 512;
  std::stringstream ss;
  {
    StreamingTraceWriter w(ss, kChunk);
    TraceEntry e{0, 0, 1, 1};
    for (std::size_t i = 0; i < kEntries; ++i) {
      e.cycle = i / 4;
      e.src = static_cast<NodeId>(i % 64);
      e.dst = static_cast<NodeId>((i + 5) % 64);
      w.append(e);
    }
    w.finish();
  }

  StreamingTraceReader r(ss, kChunk);
  ASSERT_EQ(r.total_entries(), kEntries);
  TraceEntry e;
  std::size_t max_buffered = 0;
  while (r.next(e)) {
    max_buffered = std::max(max_buffered, r.buffered_entries());
  }
  EXPECT_EQ(r.entries_read(), kEntries);
  EXPECT_LE(max_buffered, kChunk);
  EXPECT_EQ(e.cycle, (kEntries - 1) / 4);  // last record intact
}

// --- replay equivalence --------------------------------------------------

TEST(TraceBinaryIo, StreamingReplayMatchesInMemoryReplay) {
  const std::vector<TraceEntry> entries = make_trace(800);
  std::stringstream ss;
  write_trace_binary(ss, entries);

  SimConfig cfg;
  cfg.design = RouterDesign::DXbar;
  cfg.mesh_width = 4;
  cfg.mesh_height = 4;
  cfg.seed = 3;

  cfg.warmup_cycles = 0;  // the whole replay is the window
  cfg.measure_cycles = 100'000;

  TraceWorkload in_memory_replay(entries);
  const RunStats in_memory = run_open_loop(cfg, in_memory_replay);
  StreamingTraceReader reader(ss, /*chunk=*/64);
  StreamingTraceWorkload streamed_replay(reader);
  const RunStats streamed = run_open_loop(cfg, streamed_replay);

  EXPECT_TRUE(in_memory.drained);
  EXPECT_EQ(in_memory.packets_completed, entries.size());
  EXPECT_TRUE(same_stats(streamed, in_memory));
}

// --- text format ---------------------------------------------------------

TEST(TraceTextIo, MalformedLineThrowsTypedError) {
  // A line whose cycle parses but whose tail is junk, or whose length no
  // Flit can describe; non-numeric lines are comment-like and skipped by
  // design.
  for (const char* text : {"10 0 1 1\n11 0 junk\n", "10 0 1 1\n11 0 1 65536\n"}) {
    std::istringstream is(text);
    try {
      (void)read_trace(is);
      ADD_FAILURE() << "malformed line accepted: " << text;
    } catch (const TraceError& e) {
      EXPECT_EQ(e.kind(), TraceError::Kind::Malformed);
      EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
    }
  }
}

}  // namespace
}  // namespace dxbar
