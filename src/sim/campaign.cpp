#include "sim/campaign.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <utility>

#include "sim/sim_runner.hpp"
#include "snapshot/serialize.hpp"
#include "workload/factory.hpp"

namespace dxbar {

namespace {

constexpr std::uint32_t kCheckpointTag = section_tag("CKPT");
constexpr std::uint32_t kSecCampaign = section_tag("CAMP");

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

/// Writes `bytes` to `path` opened in `mode` (append or truncate) and
/// closes it, so the bytes have left the process when it returns.
void write_file(const std::string& path, std::ios::openmode mode,
                const std::vector<std::uint8_t>& bytes) {
  errno = 0;
  std::ofstream out(path, std::ios::binary | mode);
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
std::vector<std::uint8_t> frame(std::uint32_t tag,
                                const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> out;
  out.reserve(payload.size() + 20);
  put_le(out, tag, 4);
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
std::size_t for_each_frame(const std::vector<std::uint8_t>& bytes,
                           std::uint32_t tag, Fn&& fn) {
  std::size_t pos = 0;
  while (bytes.size() - pos >= 4 + 8) {
    const std::uint8_t* head = bytes.data() + pos;
    if (get_le(head, 4) != tag) break;
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

/// Restores `bytes` into a freshly built pair when it is an intact
/// checkpoint of point `point` of the campaign `fingerprint` names.  On
/// false the pair may be partially overwritten.
bool restore_checkpoint(const std::vector<std::uint8_t>& bytes,
                        std::size_t point, std::uint64_t fingerprint,
                        Network& net, WorkloadModel& workload) {
  bool restored = false;
  for_each_frame(bytes, kCheckpointTag, [&](SnapshotReader& r) {
    (void)r.expect_section(kSecCampaign);
    if (r.u32() != point || r.u64() != fingerprint) return;
    load_open_loop_state(r, net, workload);
    restored = true;
  });
  return restored;
}

void write_checkpoint(const std::string& path, std::size_t point,
                      std::uint64_t fingerprint, const Network& net,
                      const WorkloadModel& workload) {
  SnapshotWriter w;
  w.begin_section(kSecCampaign);
  w.u32(static_cast<std::uint32_t>(point));
  w.u64(fingerprint);
  w.end_section();
  save_open_loop_state(w, net, workload);

  // Atomic replacement: the old checkpoint stays valid until the new one
  // is fully on disk.
  const std::string tmp = path + ".tmp";
  write_file(tmp, std::ios::trunc, frame(kCheckpointTag, w.data()));
  if (std::rename(tmp.c_str(), path.c_str()) != 0) fail(path, "replace");
}

}  // namespace

// ---- ResultsLog ------------------------------------------------------

ResultsLog::ResultsLog(std::size_t points, const std::string& dir,
                       std::uint64_t fingerprint)
    : path_(dir + "/results.bin"),
      fingerprint_(fingerprint),
      results_(points) {
  const std::vector<std::uint8_t> bytes = read_file(path_);
  const std::size_t intact =
      for_each_frame(bytes, kResultTag, [&](SnapshotReader& r) {
        const std::uint64_t fp = r.u64();
        const std::uint32_t point = r.u32();
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
  payload.u64(fingerprint_);
  payload.u32(static_cast<std::uint32_t>(point));
  save_run_stats(payload, r);
  const std::vector<std::uint8_t> bytes = frame(kResultTag, payload.data());

  const std::lock_guard<std::mutex> lock(mu_);
  write_file(path_, std::ios::app, bytes);
  results_[point] = r;
}

// ---- Campaign --------------------------------------------------------

Campaign::Campaign(std::vector<SimConfig> points, const std::string& dir,
                   Cycle checkpoint_interval)
    : points_(std::move(points)),
      checkpoint_path_(dir + "/checkpoint.bin"),
      checkpoint_interval_(checkpoint_interval == 0 ? 1 : checkpoint_interval),
      fingerprint_(points_fingerprint(points_)),
      log_(points_.size(), dir, fingerprint_) {}

CampaignStatus Campaign::status() const {
  CampaignStatus st;
  st.total = points_.size();
  st.completed = log_.completed();
  st.finished = st.completed == st.total;
  return st;
}

CampaignStatus Campaign::run(std::uint64_t cycle_budget) {
  std::uint64_t stepped = 0;
  // The checkpoint (if any) belongs to at most one point; consume it on
  // the first pending point and ignore it if it does not match.
  std::vector<std::uint8_t> checkpoint = read_file(checkpoint_path_);

  for (std::size_t i = 0; i < points_.size(); ++i) {
    if (log_.results()[i].has_value()) continue;
    const SimConfig& cfg = points_[i];

    std::unique_ptr<Network> net;
    std::unique_ptr<WorkloadModel> workload;
    const auto build = [&] {
      net = std::make_unique<Network>(cfg);
      workload = make_workload(cfg, net->mesh());
      net->set_workload(workload.get());
    };
    build();
    if (!checkpoint.empty() &&
        !restore_checkpoint(std::exchange(checkpoint, {}), i, fingerprint_,
                            *net, *workload)) {
      build();  // restart the point cold
    }

    // The run's phase follows from net->now() alone, so slices of any
    // length step exactly what one finish_open_loop call would.  A
    // workload without snapshots (SPLASH) gets no checkpoint: a pause
    // inside such a point restarts it cold.
    const bool checkpointed = workload->snapshot_supported();
    Cycle next_checkpoint = net->now() + checkpoint_interval_;
    for (;;) {
      const Cycle from = net->now();
      Cycle slice = next_checkpoint - from;
      if (cycle_budget != 0) slice = std::min(slice, cycle_budget - stepped);
      advance_open_loop(*net, from + slice);
      const bool done = drain_open_loop(*net, *workload, from + slice);
      stepped += net->now() - from;
      if (done) break;
      if (net->now() == next_checkpoint) {
        if (checkpointed) {
          write_checkpoint(checkpoint_path_, i, fingerprint_, *net,
                           *workload);
        }
        next_checkpoint += checkpoint_interval_;
      }
      if (cycle_budget != 0 && stepped >= cycle_budget) return status();
    }

    // Persist the result BEFORE dropping the checkpoint: a crash between
    // the two leaves a stale checkpoint for a completed point, which the
    // next run detects (point != first pending) and discards.
    log_.record(i, summarize_open_loop(*net, *workload));
    std::remove(checkpoint_path_.c_str());
  }
  return status();
}

}  // namespace dxbar
