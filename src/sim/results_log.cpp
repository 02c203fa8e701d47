#include "sim/results_log.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <utility>

#include "snapshot/serialize.hpp"

namespace dxbar {

namespace {

// A RunStats payload follows run_stats_fields(); logs from before that
// layout used "RSOL", which the frame reader now drops as a foreign
// tail, so those points re-run once.
constexpr std::uint32_t kResultTag = section_tag("RSO2");

[[noreturn]] void fail(const std::string& path, const char* action,
                       int err = errno) {
  throw ResumeFileError("resume file " + path + ": cannot " + action +
                        (err != 0 ? std::string(": ") + std::strerror(err)
                                  : std::string()));
}

/// The whole file; empty when it does not exist.
std::vector<std::uint8_t> read_file(const std::string& path) {
  std::error_code ec;
  if (!std::filesystem::exists(path, ec) && !ec) return {};
  errno = 0;
  std::ifstream in(path, std::ios::binary);
  std::vector<std::uint8_t> bytes;
  try {
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  } catch (const std::ios_base::failure&) {
    in.setstate(std::ios::badbit);
  }
  if (!in.is_open() || in.bad()) fail(path, "read");
  return bytes;
}

/// Appends `bytes` to `path` and closes it, so the bytes have left the
/// process when it returns.
void append_file(const std::string& path,
                 const std::vector<std::uint8_t>& bytes) {
  errno = 0;
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  out.close();
  if (!out) fail(path, "write");
}

void put_le(std::vector<std::uint8_t>& buf, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

std::uint64_t get_le(const std::uint8_t* p, int bytes) {
  std::uint64_t v = 0;
  for (int i = 0; i < bytes; ++i) v |= std::uint64_t{p[i]} << (8 * i);
  return v;
}

/// tag u32 + payload length u64 + payload + FNV-1a(payload) u64.
std::vector<std::uint8_t> frame(const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> out;
  out.reserve(payload.size() + 20);
  put_le(out, kResultTag, 4);
  put_le(out, payload.size(), 8);
  out.insert(out.end(), payload.begin(), payload.end());
  put_le(out, fnv1a(payload.data(), payload.size()), 8);
  return out;
}

/// Calls `fn(reader)` on each frame payload in the longest intact prefix
/// of `bytes` and returns the prefix length.  Frames are appended
/// sequentially, so the first one that fails any check — foreign tag,
/// overrun, bad hash, or a payload `fn` cannot parse — is a torn tail
/// from a crash mid-append (or a file of an older format): it and
/// everything after it are dropped.
template <class Fn>
std::size_t for_each_frame(const std::vector<std::uint8_t>& bytes, Fn&& fn) {
  std::size_t pos = 0;
  while (bytes.size() - pos >= 4 + 8) {
    const std::uint8_t* head = bytes.data() + pos;
    if (get_le(head, 4) != kResultTag) break;
    const std::uint64_t len = get_le(head + 4, 8);
    if (len > bytes.size() - pos - 12 || bytes.size() - pos - 12 - len < 8) {
      break;
    }
    if (fnv1a(head + 12, len) != get_le(head + 12 + len, 8)) break;
    try {
      SnapshotReader r(head + 12, len);
      fn(r);
    } catch (const SnapshotError&) {
      break;
    }
    pos += 12 + len + 8;
  }
  return pos;
}

std::uint64_t points_fingerprint(const std::vector<SimConfig>& points) {
  SnapshotWriter w;
  for (const SimConfig& p : points) save_config(w, p);
  return fnv1a(w.data().data(), w.data().size());
}

}  // namespace

ResultsLog::ResultsLog(const std::vector<SimConfig>& points,
                       const std::string& dir)
    : path_(dir + "/results.bin"),
      fingerprint_(points_fingerprint(points)),
      results_(points.size()) {
  const std::vector<std::uint8_t> bytes = read_file(path_);
  const std::size_t intact =
      for_each_frame(bytes, [&](SnapshotReader& r) {
        std::uint64_t fp = 0;
        std::uint32_t point = 0;
        r(fp, point);
        RunStats result = load_run_stats(r);
        if (fp == fingerprint_ && point < results_.size()) {
          results_[point] = std::move(result);
        }
      });
  // Cut the unreadable tail off, or every frame appended after it would
  // be unreadable too.
  if (intact < bytes.size()) {
    std::error_code ec;
    std::filesystem::resize_file(path_, intact, ec);
    if (ec) fail(path_, "truncate", ec.value());
  }
}

std::size_t ResultsLog::completed() const {
  return static_cast<std::size_t>(
      std::count_if(results_.begin(), results_.end(),
                    [](const auto& r) { return r.has_value(); }));
}

void ResultsLog::record(std::size_t point, const RunStats& r) {
  SnapshotWriter payload;
  payload(fingerprint_, static_cast<std::uint32_t>(point));
  save_run_stats(payload, r);
  const std::vector<std::uint8_t> bytes = frame(payload.data());

  const std::lock_guard<std::mutex> lock(mu_);
  append_file(path_, bytes);
  results_[point] = r;
}

}  // namespace dxbar
