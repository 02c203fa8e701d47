// Versioned binary snapshot format (the snapshot subsystem's wire
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
// Network snapshots never leave the process: a warm group's warmup is
// saved once and every replica forks from it (run_sweep, WarmupCache).
// The --resume results log is the only stream that reaches disk, as
// RunStats frames written through the same writer.  Sections let a
// reader validate that it is decoding what the writer produced.  Any
// payload layout change bumps kSnapshotVersion, and a reader accepts
// only its own version.
//
// Snapshot protocol: each snapshotted type lists its state once, in
//
//   template <class Self, class Ar>
//   static void fields(Self& self, Ar& ar) { ar(self.a_, self.b_, ...); }
//
// which SnapshotWriter walks with Self = const T and SnapshotReader
// with Self = T, so the two directions cannot drift apart.  `ar(x...)`
// takes each argument at the width of its C++ type: integers at their
// own width, bool as one byte, double as its bit pattern, enums as
// their underlying type, arrays and spans element by element (their
// length is structural), std::optional as a flag and then the value,
// FixedQueue as a count and then the elements, and any type with
// fields() through it.  A type whose two directions do different work
// (a run-length queue, a sparse histogram, a heap) instead keeps a
// save(SnapshotWriter&) const / load(SnapshotReader&) pair, which `ar`
// calls.  Work only the reader does (count bounds, structural checks,
// rebuilt derived state) is done by expect()/list() inside the walk or
// by the load entry point after it.
//
// Restoring a snapshot into a freshly constructed object (same
// constructor arguments) reproduces the saved object's observable
// behaviour bit-exactly.  Structural state derived from the
// configuration (mesh wiring, route tables, credit sizing) is NOT
// serialized: restore always goes through normal construction, so a
// snapshot holds only the mutable simulation state.
//
// Readers throw SnapshotError on truncation, tag mismatch, version skew
// or a failed structural check; writers never fail (they append to an
// in-memory buffer).
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/fixed_queue.hpp"

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

namespace snapshot_detail {

/// Fixed-length sequences: walked element by element, no count.
template <class T> inline constexpr bool kElementwise = false;
template <class T, std::size_t N>
inline constexpr bool kElementwise<T[N]> = true;
template <class T, std::size_t N>
inline constexpr bool kElementwise<std::array<T, N>> = true;
template <class T, std::size_t N>
inline constexpr bool kElementwise<std::span<T, N>> = true;

template <class T> inline constexpr bool kOptional = false;
template <class T> inline constexpr bool kOptional<std::optional<T>> = true;

template <class T> inline constexpr bool kFixedQueue = false;
template <class T> inline constexpr bool kFixedQueue<FixedQueue<T>> = true;

template <class T> inline constexpr bool kPair = false;
template <class A, class B>
inline constexpr bool kPair<std::pair<A, B>> = true;

}  // namespace snapshot_detail

class SnapshotWriter {
 public:
  static constexpr bool kLoading = false;

  SnapshotWriter() { write_header(); }

  /// Writes each argument at the width of its type (see the header).
  template <class... Ts>
  void operator()(const Ts&... xs) {
    (put(xs), ...);
  }

  /// Explicit widths, for streams built by hand.
  void u64(std::uint64_t v) { put(v); }
  void boolean(bool v) { put(v); }
  void f64(double v) { put(v); }

  /// A value the reader checks instead of restoring (a structural count
  /// or fingerprint); see SnapshotReader::expect.
  void expect(std::uint64_t v, const char* /*what*/,
              std::uint64_t /*min_element_bytes*/ = 0) {
    put(v);
  }

  /// A container whose length comes from the stream: the count, then
  /// the elements (key and value for a map).
  template <class C>
  void list(const C& c, std::uint64_t /*min_element_bytes*/) {
    put(std::uint64_t{c.size()});
    for (const auto& e : c) put(e);
  }

  /// Writes `body()` as one tagged section.  Sections do not nest.
  template <class F>
  void section(std::uint32_t tag, F&& body) {
    put(tag);
    const std::size_t start = buf_.size();
    put(std::uint64_t{0});  // length placeholder, patched below
    body();
    const std::uint64_t len = buf_.size() - start - 8;
    for (int i = 0; i < 8; ++i) {
      buf_[start + static_cast<std::size_t>(i)] =
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
  template <class T>
  void put(const T& x) {
    using namespace snapshot_detail;
    if constexpr (std::is_same_v<T, bool>) {
      buf_.push_back(x ? 1 : 0);
    } else if constexpr (std::is_integral_v<T>) {
      const auto v = static_cast<std::make_unsigned_t<T>>(x);
      for (std::size_t i = 0; i < sizeof(T); ++i) {
        buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
      }
    } else if constexpr (std::is_same_v<T, double>) {
      put(std::bit_cast<std::uint64_t>(x));
    } else if constexpr (std::is_enum_v<T>) {
      put(static_cast<std::underlying_type_t<T>>(x));
    } else if constexpr (kElementwise<T>) {
      for (const auto& e : x) put(e);
    } else if constexpr (kOptional<T>) {
      put(x.has_value());
      if (x.has_value()) put(*x);
    } else if constexpr (kFixedQueue<T>) {
      put(std::uint64_t{x.size()});
      for (std::size_t i = 0; i < x.size(); ++i) put(x.at(i));
    } else if constexpr (kPair<T>) {
      put(x.first);
      put(x.second);
    } else if constexpr (requires { T::fields(x, *this); }) {
      T::fields(x, *this);
    } else {
      x.save(*this);
    }
  }

  void write_header() {
    put(kSnapshotMagic);
    put(kSnapshotVersion);
    put(kSnapshotEndianMark);
  }

  std::vector<std::uint8_t> buf_;
};

class SnapshotReader {
 public:
  static constexpr bool kLoading = true;

  SnapshotReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {
    read_header();
  }
  explicit SnapshotReader(const std::vector<std::uint8_t>& buf)
      : SnapshotReader(buf.data(), buf.size()) {}

  /// Reads each argument at the width of its type (see the header).
  template <class... Ts>
  void operator()(Ts&&... xs) {
    (get(xs), ...);
  }

  /// Reads the writer's value and throws SnapshotError(`what`) unless it
  /// equals `v`.  A count passes the bytes each element takes at least,
  /// so a corrupt count fails as an overrun first.
  void expect(std::uint64_t v, const char* what,
              std::uint64_t min_element_bytes = 0) {
    if (count(min_element_bytes) != v) throw SnapshotError(what);
  }

  /// Replaces `c` with the stream's elements (see SnapshotWriter::list).
  template <class C>
  void list(C& c, std::uint64_t min_element_bytes) {
    c.clear();
    const std::uint64_t n = count(min_element_bytes);
    if constexpr (requires { c.reserve(n); }) c.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      if constexpr (requires { typename C::mapped_type; }) {
        typename C::key_type k{};
        typename C::mapped_type v{};
        get(k);
        get(v);
        c.emplace(k, v);
      } else {
        typename C::value_type v{};
        get(v);
        c.push_back(v);
      }
    }
  }

  /// Checks the next section's tag and length, then reads its payload
  /// with `body()`.
  template <class F>
  void section(std::uint32_t tag, F&& body) {
    const auto got = read_le<std::uint32_t>();
    if (got != tag) {
      throw SnapshotError("section tag mismatch: expected " + tag_name(tag) +
                          ", got " + tag_name(got));
    }
    if (read_le<std::uint64_t>() > size_ - pos_) {
      throw SnapshotError("section " + tag_name(tag) +
                          " overruns the stream");
    }
    body();
  }

  /// Counts a size/length field against what the stream can still hold,
  /// so corrupt counts fail fast instead of driving giant allocations
  /// (0: no bound).
  [[nodiscard]] std::uint64_t count(std::uint64_t max_element_bytes = 1) {
    const auto n = read_le<std::uint64_t>();
    if (max_element_bytes != 0 && n > (size_ - pos_) / max_element_bytes) {
      throw SnapshotError("element count overruns the stream");
    }
    return n;
  }

  [[nodiscard]] std::size_t remaining() const noexcept {
    return size_ - pos_;
  }

 private:
  template <class T>
  void get(T& x) {
    using namespace snapshot_detail;
    if constexpr (std::is_same_v<T, bool>) {
      x = read_le<std::uint8_t>() != 0;
    } else if constexpr (std::is_integral_v<T>) {
      x = static_cast<T>(read_le<std::make_unsigned_t<T>>());
    } else if constexpr (std::is_same_v<T, double>) {
      x = std::bit_cast<double>(read_le<std::uint64_t>());
    } else if constexpr (std::is_enum_v<T>) {
      x = static_cast<T>(read_le<std::make_unsigned_t<
                             std::underlying_type_t<T>>>());
    } else if constexpr (kElementwise<T>) {
      for (auto& e : x) get(e);
    } else if constexpr (kOptional<T>) {
      x.reset();
      if (read_le<std::uint8_t>() != 0) get(x.emplace());
    } else if constexpr (kFixedQueue<T>) {
      x.clear();
      const std::uint64_t n = count();
      if (n > x.capacity()) {
        throw SnapshotError("fixed queue population exceeds capacity");
      }
      for (std::uint64_t i = 0; i < n; ++i) {
        typename T::value_type v{};
        get(v);
        (void)x.push(std::move(v));
      }
    } else if constexpr (requires { T::fields(x, *this); }) {
      T::fields(x, *this);
    } else {
      x.load(*this);
    }
  }

  static std::string tag_name(std::uint32_t tag) {
    std::string s(4, '?');
    for (int i = 0; i < 4; ++i) {
      const char c = static_cast<char>(tag >> (8 * i));
      s[static_cast<std::size_t>(i)] = (c >= 32 && c < 127) ? c : '?';
    }
    return "'" + s + "'";
  }

  template <typename T>
  T read_le() {
    if (sizeof(T) > size_ - pos_) throw SnapshotError("truncated stream");
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v = static_cast<T>(v | static_cast<T>(data_[pos_ + i]) << (8 * i));
    }
    pos_ += sizeof(T);
    return v;
  }

  void read_header() {
    if (read_le<std::uint32_t>() != kSnapshotMagic) {
      throw SnapshotError("bad magic");
    }
    // A layout change bumps the version; older streams are not read.
    if (const auto version = read_le<std::uint16_t>();
        version != kSnapshotVersion) {
      throw SnapshotError("unsupported version " + std::to_string(version) +
                          " (expected " + std::to_string(kSnapshotVersion) +
                          ")");
    }
    if (read_le<std::uint16_t>() != kSnapshotEndianMark) {
      throw SnapshotError("endianness mismatch");
    }
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// FNV-1a over a byte range; the --resume results log frames records
/// with it to detect torn writes after a crash.
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
