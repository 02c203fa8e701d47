#include "traffic/trace_io.hpp"

#include <algorithm>
#include <array>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>

#include "common/flit.hpp"

namespace dxbar {

namespace {

constexpr std::uint32_t kTraceMagic = 0x52545844u;  // "DXTR" little-endian
constexpr std::uint16_t kEndianMarker = 0xFEFFu;
constexpr std::uint64_t kCountSentinel =
    std::numeric_limits<std::uint64_t>::max();
constexpr std::size_t kHeaderBytes = 16;
constexpr std::size_t kRecordBytes = 20;
constexpr std::streamoff kCountOffset = 8;  // magic + version + endian

/// Lengths a packet's flits can carry (Flit::packet_len is 16-bit).
bool length_ok(int length) {
  return length >= 1 && length <= kMaxPacketLength;
}

std::string bad_length(int length) {
  return ": length " + std::to_string(length) + " outside [1, " +
         std::to_string(kMaxPacketLength) + "]";
}

void put_le(std::vector<std::uint8_t>& buf, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

std::uint64_t get_le(const std::uint8_t* p, int bytes) {
  std::uint64_t v = 0;
  for (int i = 0; i < bytes; ++i) {
    v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  }
  return v;
}

}  // namespace

std::vector<TraceEntry> read_trace(std::istream& is) {
  std::vector<TraceEntry> entries;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ls(line);
    TraceEntry e;
    if (!(ls >> e.cycle)) continue;  // blank or comment-only line
    if (!(ls >> e.src >> e.dst >> e.length) || !length_ok(e.length)) {
      throw TraceError(TraceError::Kind::Malformed,
                       "malformed trace line " + std::to_string(lineno));
    }
    entries.push_back(e);
  }
  std::stable_sort(entries.begin(), entries.end(),
                   [](const TraceEntry& a, const TraceEntry& b) {
                     return a.cycle < b.cycle;
                   });
  return entries;
}

void write_trace(std::ostream& os, std::span<const TraceEntry> entries) {
  os << "# cycle src dst length\n";
  for (const TraceEntry& e : entries) {
    os << e.cycle << ' ' << e.src << ' ' << e.dst << ' ' << e.length << '\n';
  }
}

TraceWorkload::TraceWorkload(std::vector<TraceEntry> entries)
    : entries_(std::move(entries)) {
  std::stable_sort(entries_.begin(), entries_.end(),
                   [](const TraceEntry& a, const TraceEntry& b) {
                     return a.cycle < b.cycle;
                   });
}

// ---------------------------------------------------------------------
// Binary "DXTR" streaming format

StreamingTraceWriter::StreamingTraceWriter(std::ostream& out,
                                           std::size_t chunk)
    : out_(out), chunk_(chunk == 0 ? 1 : chunk) {
  buf_.reserve(std::min(chunk_, std::size_t{kDefaultChunk}) * kRecordBytes);
  std::vector<std::uint8_t> header;
  put_le(header, kTraceMagic, 4);
  put_le(header, kTraceFormatVersion, 2);
  put_le(header, kEndianMarker, 2);
  put_le(header, kCountSentinel, 8);  // backpatched by finish()
  out_.write(reinterpret_cast<const char*>(header.data()),
             static_cast<std::streamsize>(header.size()));
}

void StreamingTraceWriter::append(const TraceEntry& e) {
  if (finished_) {
    throw TraceError(TraceError::Kind::Malformed,
                     "append() after finish()");
  }
  if (!length_ok(e.length)) {
    throw TraceError(TraceError::Kind::Malformed,
                     "trace entry " + std::to_string(count_) +
                         bad_length(e.length));
  }
  if (count_ != 0 && e.cycle < last_cycle_) {
    throw TraceError(TraceError::Kind::Malformed,
                     "trace entry " + std::to_string(count_) +
                         ": cycle regressed");
  }
  last_cycle_ = e.cycle;
  put_le(buf_, e.cycle, 8);
  put_le(buf_, e.src, 4);
  put_le(buf_, e.dst, 4);
  put_le(buf_, static_cast<std::uint32_t>(e.length), 4);
  ++count_;
  if (buf_.size() >= chunk_ * kRecordBytes) flush_chunk();
}

void StreamingTraceWriter::flush_chunk() {
  if (buf_.empty()) return;
  out_.write(reinterpret_cast<const char*>(buf_.data()),
             static_cast<std::streamsize>(buf_.size()));
  buf_.clear();
}

void StreamingTraceWriter::finish() {
  if (finished_) return;
  flush_chunk();
  // Backpatch the record count over the sentinel; only a finished trace
  // carries a real count, so torn writes stay detectable.
  std::vector<std::uint8_t> le;
  put_le(le, count_, 8);
  out_.seekp(kCountOffset, std::ios::beg);
  out_.write(reinterpret_cast<const char*>(le.data()), 8);
  out_.seekp(0, std::ios::end);
  out_.flush();
  finished_ = true;
}

StreamingTraceReader::StreamingTraceReader(std::istream& in,
                                           std::size_t chunk)
    : in_(in), chunk_(chunk == 0 ? 1 : chunk) {
  std::array<std::uint8_t, kHeaderBytes> header{};
  in_.read(reinterpret_cast<char*>(header.data()), kHeaderBytes);
  if (static_cast<std::size_t>(in_.gcount()) != kHeaderBytes) {
    throw TraceError(TraceError::Kind::Truncated,
                     "trace shorter than its 16-byte header");
  }
  if (get_le(header.data(), 4) != kTraceMagic) {
    throw TraceError(TraceError::Kind::CorruptHeader,
                     "bad trace magic (not a DXTR trace)");
  }
  const auto version =
      static_cast<std::uint16_t>(get_le(header.data() + 4, 2));
  if (get_le(header.data() + 6, 2) != kEndianMarker) {
    throw TraceError(TraceError::Kind::CorruptHeader,
                     "bad endian marker in trace header");
  }
  if (version != kTraceFormatVersion) {
    throw TraceError(TraceError::Kind::VersionMismatch,
                     "trace format version " + std::to_string(version) +
                         ", this reader understands " +
                         std::to_string(kTraceFormatVersion));
  }
  total_ = get_le(header.data() + 8, 8);
  if (total_ == kCountSentinel) {
    throw TraceError(TraceError::Kind::Truncated,
                     "trace was never finalized (count sentinel present)");
  }
}

void StreamingTraceReader::refill() {
  buf_.clear();
  pos_ = 0;
  const std::uint64_t remaining = total_ - consumed_;
  const std::size_t want = static_cast<std::size_t>(
      std::min<std::uint64_t>(remaining, chunk_));
  if (want == 0) return;
  std::vector<std::uint8_t> raw(want * kRecordBytes);
  in_.read(reinterpret_cast<char*>(raw.data()),
           static_cast<std::streamsize>(raw.size()));
  const auto got = static_cast<std::size_t>(in_.gcount());
  if (got != raw.size()) {
    throw TraceError(
        TraceError::Kind::Truncated,
        "trace ends after " +
            std::to_string(consumed_ + got / kRecordBytes) + " of " +
            std::to_string(total_) + " records");
  }
  buf_.reserve(want);
  for (std::size_t i = 0; i < want; ++i) {
    const std::uint8_t* p = raw.data() + i * kRecordBytes;
    TraceEntry e;
    e.cycle = get_le(p, 8);
    e.src = static_cast<NodeId>(get_le(p + 8, 4));
    e.dst = static_cast<NodeId>(get_le(p + 12, 4));
    e.length = static_cast<int>(get_le(p + 16, 4));
    const std::uint64_t index = consumed_ + i;
    if (!length_ok(e.length)) {
      throw TraceError(TraceError::Kind::Malformed,
                       "trace record " + std::to_string(index) +
                           bad_length(e.length));
    }
    if (index != 0 && e.cycle < last_cycle_) {
      throw TraceError(TraceError::Kind::Malformed,
                       "trace record " + std::to_string(index) +
                           ": cycle regressed");
    }
    last_cycle_ = e.cycle;
    buf_.push_back(e);
  }
}

bool StreamingTraceReader::next(TraceEntry& out) {
  if (pos_ >= buf_.size()) {
    if (consumed_ >= total_) return false;
    refill();
    if (pos_ >= buf_.size()) return false;
  }
  out = buf_[pos_++];
  ++consumed_;
  return true;
}

std::vector<TraceEntry> read_trace_binary(std::istream& is) {
  StreamingTraceReader reader(is);
  std::vector<TraceEntry> entries;
  entries.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(reader.total_entries(), 1u << 20)));
  TraceEntry e;
  while (reader.next(e)) entries.push_back(e);
  return entries;
}

void write_trace_binary(std::ostream& os,
                        std::span<const TraceEntry> entries) {
  StreamingTraceWriter writer(os);
  for (const TraceEntry& e : entries) writer.append(e);
  writer.finish();
}

StreamingTraceWorkload::StreamingTraceWorkload(StreamingTraceReader& reader)
    : reader_(reader) {
  have_pending_ = reader_.next(pending_);
}

void StreamingTraceWorkload::begin_cycle(Cycle now, Injector& inject) {
  while (have_pending_ && pending_.cycle <= now) {
    if (enabled_ && pending_.src != pending_.dst) {
      inject.inject_packet(pending_.src, pending_.dst, pending_.length, now);
    }
    have_pending_ = reader_.next(pending_);
  }
}

void TraceWorkload::begin_cycle(Cycle now, Injector& inject) {
  if (!enabled_) {
    // Skip entries scheduled while injection is disabled.
    while (next_ < entries_.size() && entries_[next_].cycle <= now) ++next_;
    return;
  }
  while (next_ < entries_.size() && entries_[next_].cycle <= now) {
    const TraceEntry& e = entries_[next_++];
    if (e.src != e.dst) inject.inject_packet(e.src, e.dst, e.length, now);
  }
}

}  // namespace dxbar
