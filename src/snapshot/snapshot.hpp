// Versioned binary checkpoint format (the snapshot subsystem's wire
// layer).
//
// A snapshot is a little-endian byte stream:
//
//   magic   u32  'DXSN'
//   version u16  kSnapshotVersion
//   endian  u16  0xFEFF (written natively; a byte-swapped reader sees
//                0xFFFE and rejects the stream)
//   sections ... each: tag u32 (fourcc) + payload length u64 + payload
//
// Sections let a reader validate that it is decoding what the writer
// produced.  Any payload layout change bumps kSnapshotVersion, and a
// reader accepts only its own version: checkpoints are re-recorded, not
// migrated.
//
// Components implement the Snapshotable protocol — a pair of methods
//
//   void save(SnapshotWriter&) const;
//   void load(SnapshotReader&);
//
// with the invariant that load() applied to a freshly constructed
// object (same constructor arguments) reproduces the saved object's
// observable behaviour bit-exactly.  Structural state derived from the
// configuration (mesh wiring, route tables, credit sizing) is NOT
// serialized: restore always goes through normal construction, so a
// snapshot holds only the mutable simulation state.
//
// Readers throw SnapshotError on truncation, tag mismatch, or version
// skew; writers never fail (they append to an in-memory buffer the
// caller persists).
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

namespace dxbar {

inline constexpr std::uint32_t kSnapshotMagic = 0x4E535844;  // "DXSN"
inline constexpr std::uint16_t kSnapshotVersion = 9;
inline constexpr std::uint16_t kSnapshotEndianMark = 0xFEFF;

/// Builds a four-character section tag, e.g. section_tag("CHAN").
constexpr std::uint32_t section_tag(const char (&s)[5]) noexcept {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(s[0])) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(s[1])) << 8 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(s[2])) << 16 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(s[3])) << 24;
}

class SnapshotError : public std::runtime_error {
 public:
  explicit SnapshotError(const std::string& what)
      : std::runtime_error("snapshot: " + what) {}
};

class SnapshotWriter {
 public:
  SnapshotWriter() { write_header(); }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { append_le(v); }
  void u32(std::uint32_t v) { append_le(v); }
  void u64(std::uint64_t v) { append_le(v); }
  void i32(std::int32_t v) { append_le(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { append_le(static_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  /// Doubles travel as their IEEE-754 bit pattern: restore is bit-exact.
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }

  /// Opens a section; every begin must be matched by end_section, and
  /// sections do not nest.
  void begin_section(std::uint32_t tag) {
    u32(tag);
    section_start_ = buf_.size();
    u64(0);  // length placeholder, patched by end_section
  }

  void end_section() {
    const std::uint64_t len = buf_.size() - section_start_ - 8;
    for (int i = 0; i < 8; ++i) {
      buf_[section_start_ + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(len >> (8 * i));
    }
  }

  [[nodiscard]] const std::vector<std::uint8_t>& data() const noexcept {
    return buf_;
  }
  [[nodiscard]] std::vector<std::uint8_t> take() noexcept {
    return std::move(buf_);
  }

 private:
  template <typename T>
  void append_le(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  void write_header() {
    u32(kSnapshotMagic);
    u16(kSnapshotVersion);
    u16(kSnapshotEndianMark);
  }

  std::vector<std::uint8_t> buf_;
  std::size_t section_start_ = 0;
};

class SnapshotReader {
 public:
  SnapshotReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {
    read_header();
  }
  explicit SnapshotReader(const std::vector<std::uint8_t>& buf)
      : SnapshotReader(buf.data(), buf.size()) {}

  [[nodiscard]] std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }
  [[nodiscard]] std::uint16_t u16() { return read_le<std::uint16_t>(); }
  [[nodiscard]] std::uint32_t u32() { return read_le<std::uint32_t>(); }
  [[nodiscard]] std::uint64_t u64() { return read_le<std::uint64_t>(); }
  [[nodiscard]] std::int32_t i32() {
    return static_cast<std::int32_t>(read_le<std::uint32_t>());
  }
  [[nodiscard]] std::int64_t i64() {
    return static_cast<std::int64_t>(read_le<std::uint64_t>());
  }
  [[nodiscard]] bool boolean() { return u8() != 0; }
  [[nodiscard]] double f64() { return std::bit_cast<double>(u64()); }

  void bytes(void* out, std::size_t n) {
    need(n);
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
  }

  /// Consumes the header of the next section and checks its tag.
  /// Returns the payload length.
  std::uint64_t expect_section(std::uint32_t tag) {
    const std::uint32_t got = u32();
    if (got != tag) {
      throw SnapshotError("section tag mismatch: expected " + tag_name(tag) +
                          ", got " + tag_name(got));
    }
    const std::uint64_t len = u64();
    if (len > size_ - pos_) {
      throw SnapshotError("section " + tag_name(tag) +
                          " overruns the stream");
    }
    return len;
  }

  /// Counts a size/length field against what the stream can still hold,
  /// so corrupt counts fail fast instead of driving giant allocations.
  [[nodiscard]] std::uint64_t count(std::uint64_t max_element_bytes = 1) {
    const std::uint64_t n = u64();
    if (max_element_bytes != 0 && n > (size_ - pos_) / max_element_bytes) {
      throw SnapshotError("element count overruns the stream");
    }
    return n;
  }

  [[nodiscard]] std::size_t remaining() const noexcept {
    return size_ - pos_;
  }

 private:
  static std::string tag_name(std::uint32_t tag) {
    std::string s(4, '?');
    for (int i = 0; i < 4; ++i) {
      const char c = static_cast<char>(tag >> (8 * i));
      s[static_cast<std::size_t>(i)] = (c >= 32 && c < 127) ? c : '?';
    }
    return "'" + s + "'";
  }

  void need(std::size_t n) const {
    if (n > size_ - pos_) throw SnapshotError("truncated stream");
  }

  template <typename T>
  T read_le() {
    need(sizeof(T));
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v = static_cast<T>(v | static_cast<T>(data_[pos_ + i]) << (8 * i));
    }
    pos_ += sizeof(T);
    return v;
  }

  void read_header() {
    if (u32() != kSnapshotMagic) throw SnapshotError("bad magic");
    // A layout change bumps the version; older streams are not read.
    if (const std::uint16_t version = u16(); version != kSnapshotVersion) {
      throw SnapshotError("unsupported version " + std::to_string(version) +
                          " (expected " + std::to_string(kSnapshotVersion) +
                          ")");
    }
    if (u16() != kSnapshotEndianMark) {
      throw SnapshotError("endianness mismatch");
    }
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// FNV-1a over a byte range; the campaign runner frames records with it
/// to detect torn writes after a crash.
[[nodiscard]] constexpr std::uint64_t fnv1a(const std::uint8_t* data,
                                            std::size_t n) noexcept {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 0x100000001B3ULL;
  }
  return h;
}

}  // namespace dxbar
