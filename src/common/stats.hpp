// Measurement-window statistics collection.
//
// The collector tags each packet by whether it was created inside the
// measurement window; throughput counts flit ejections during the window
// and latency averages only window packets, the standard open-loop
// methodology (warmup / measure / drain).
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string_view>
#include <variant>
#include <vector>

#include "common/flit.hpp"
#include "common/latency_histogram.hpp"
#include "common/types.hpp"

namespace dxbar {

/// Aggregate results of one simulation run, in the units the paper plots.
struct RunStats {
  double offered_load = 0.0;    ///< configured fraction of capacity
  double accepted_load = 0.0;   ///< ejected flits / node / cycle (fraction)
  /// Standard deviation of the accepted load across 8 equal sub-batches
  /// of the measurement window — a warm-up/stationarity sanity signal.
  double accepted_load_stddev = 0.0;
  double avg_packet_latency = 0.0;   ///< cycles, creation -> completion
  double avg_network_latency = 0.0;  ///< cycles, injection -> completion
  // Packet-latency distribution over window packets (cycles).
  double latency_p50 = 0.0;
  double latency_p95 = 0.0;
  double latency_p99 = 0.0;
  double latency_max = 0.0;
  double avg_hops = 0.0;             ///< link traversals per flit
  double deflections_per_flit = 0.0;
  double retransmits_per_flit = 0.0;
  std::uint64_t packets_completed = 0;
  std::uint64_t flits_ejected = 0;
  std::uint64_t flits_injected = 0;
  /// Measurement window length; for a finite workload's run (window
  /// [0, cap)) the cycle it stopped at, its execution time.
  std::uint64_t cycles = 0;
  int packet_length = 1;          ///< flits per packet (for per-packet energy)
  /// All in-flight traffic delivered; for a finite workload, its work
  /// finished before the cycle cap.
  bool drained = false;
  // Energy (nJ) accumulated over the measurement window, split by source.
  double energy_buffer_nj = 0.0;
  double energy_crossbar_nj = 0.0;
  double energy_link_nj = 0.0;
  double energy_control_nj = 0.0;  ///< NACK network, retransmission control
  /// Static (leakage) energy over the measurement window: router area
  /// times the node's leakage density times the window's wall time.
  /// Deliberately EXCLUDED from total_energy_nj — the paper's Table III
  /// numbers are dynamic-only, so the pinned 65 nm energies and every
  /// derived per-flit/per-packet metric stay untouched.  Reported as
  /// its own column where leakage matters (the smaller tech nodes).
  double energy_leakage_nj = 0.0;
  // Closed-loop request-reply latency (cycles, request inject -> reply
  // eject), filled by ClosedLoopWorkload::fill_run_stats; all zero for
  // open-loop runs.
  double avg_req_latency = 0.0;
  double req_latency_p50 = 0.0;
  double req_latency_p95 = 0.0;
  double req_latency_p99 = 0.0;
  double req_latency_max = 0.0;
  std::uint64_t requests_completed = 0;
  /// The full request-latency distribution behind the quantile summary
  /// above (empty for open-loop runs).  Mergeable by construction, so
  /// `--seeds N` replication can pool replicas and report quantiles of
  /// the pooled distribution instead of averaging per-replica
  /// quantiles.
  LatencyHistogram req_hist;

  [[nodiscard]] double total_energy_nj() const noexcept {
    return energy_buffer_nj + energy_crossbar_nj + energy_link_nj +
           energy_control_nj;
  }
  /// Energy per delivered flit over the measurement window (nJ).  Both
  /// numerator and denominator are window-scoped, so the metric stays
  /// unbiased past saturation.
  [[nodiscard]] double energy_per_flit_nj() const noexcept {
    return flits_ejected == 0
               ? 0.0
               : total_energy_nj() / static_cast<double>(flits_ejected);
  }
  /// Average energy per delivered packet (nJ), the paper's Fig 6/8
  /// metric: window energy per ejected flit scaled by the packet length.
  [[nodiscard]] double energy_per_packet_nj() const noexcept {
    return energy_per_flit_nj() * packet_length;
  }
};

// ---- the field table --------------------------------------------------
//
// Each scalar RunStats member is one run_stats_fields() row.  The result
// JSON writer and reader and the binary codec loop over it; req_hist is
// binary-only and follows the table there.

struct StatsField {
  using Member = std::variant<double RunStats::*, std::uint64_t RunStats::*,
                              int RunStats::*, bool RunStats::*>;

  std::string_view key;  ///< result-JSON key
  Member member = {};    ///< unset on a derived row
  /// Written only where this holds (and then optional on read); null
  /// means always written.
  bool (*write_if)(const RunStats&) = nullptr;
  /// Write-only value computed from the stored fields: the reader
  /// requires the key but drops its value; the codec skips the row.
  double (*derived)(const RunStats&) = nullptr;

  [[nodiscard]] constexpr bool stored() const { return derived == nullptr; }

  /// Calls `fn(s.*member)` with the member's own type (stored rows).
  template <class Stats, class Fn>
  void visit(Stats& s, Fn&& fn) const {
    std::visit([&](auto m) { fn(s.*m); }, member);
  }
};

/// Every scalar RunStats member plus the derived energy_per_packet_nj,
/// in result-JSON key order (also the binary payload order).
std::span<const StatsField> run_stats_fields();

/// Window-gated injection counter a single shard can bump without
/// touching the shared StatsCollector.  One tally lives per shard
/// (cache-line aligned so neighbouring shards don't false-share); the
/// network folds every tally into the collector at the end of each
/// cycle via `take()` + `StatsCollector::add_injected`, so the
/// collector's observable state at cycle boundaries is identical to the
/// single-threaded run.
class alignas(64) InjectionTally {
 public:
  InjectionTally(Cycle window_start, Cycle window_end) noexcept
      : window_start_(window_start), window_end_(window_end) {}

  void on_flit_injected(const Flit& f, Cycle now) noexcept {
    if (now >= window_start_ && now < window_end_) ++count_;
    (void)f;
  }

  /// Returns and clears the pending count.
  [[nodiscard]] std::uint64_t take() noexcept {
    const std::uint64_t n = count_;
    count_ = 0;
    return n;
  }

 private:
  Cycle window_start_;
  Cycle window_end_;
  std::uint64_t count_ = 0;
};

/// Collects per-packet records and distils them into RunStats.
class StatsCollector {
 public:
  StatsCollector(Cycle window_start, Cycle window_end, int num_nodes)
      : window_start_(window_start),
        window_end_(window_end),
        num_nodes_(num_nodes) {}

  static constexpr int kBatches = 8;

  /// A flit left the network at its destination at cycle `now`.
  void on_flit_ejected(const Flit& f, Cycle now) noexcept {
    if (now >= window_start_ && now < window_end_) {
      ++window_flits_ejected_;
      const Cycle span = window_end_ - window_start_;
      if (span >= kBatches) {
        const auto b = static_cast<std::size_t>(
            (now - window_start_) * kBatches / span);
        ++batch_ejections_[b < kBatches ? b : kBatches - 1];
      }
    }
    (void)f;
  }

  /// Folds a shard's InjectionTally (already window-gated) in.
  void add_injected(std::uint64_t n) noexcept { window_flits_injected_ += n; }

  /// A packet finished reassembly.  Only packets *created* during the
  /// window contribute to latency averages.
  void on_packet_completed(const PacketRecord& rec) {
    if (rec.created >= window_start_ && rec.created < window_end_) {
      window_packets_.push_back(rec);
    }
  }

  [[nodiscard]] const std::vector<PacketRecord>& window_packets()
      const noexcept {
    return window_packets_;
  }

  /// Summarises into RunStats (energy fields are filled by the caller).
  /// A run that stopped inside the window (a finite workload done
  /// early) passes its stop cycle: `cycles` and the accepted load then
  /// cover [window_start, stopped_at), and accepted_load_stddev is 0.
  [[nodiscard]] RunStats summarize(
      double offered_load, bool drained,
      Cycle stopped_at = std::numeric_limits<Cycle>::max()) const;

  /// Snapshot protocol: captures the window bounds and all in-flight
  /// accumulation (ejection/injection counters, batch histogram, window
  /// packet records).
  template <class Self, class Ar>
  static void fields(Self& self, Ar& ar) {
    ar(self.window_start_, self.window_end_, self.window_flits_ejected_,
       self.batch_ejections_, self.window_flits_injected_);
    ar.list(self.window_packets_, 16);
  }

 private:
  Cycle window_start_;
  Cycle window_end_;
  int num_nodes_;
  std::uint64_t window_flits_ejected_ = 0;
  std::array<std::uint64_t, kBatches> batch_ejections_{};
  std::uint64_t window_flits_injected_ = 0;
  std::vector<PacketRecord> window_packets_;
};

/// Two-sided 95% Student-t quantile for `df` degrees of freedom: the
/// table for df <= 30, then the first Cornish-Fisher term, which falls
/// to the normal 1.96 as df grows (within 0.003 of the exact quantile).
[[nodiscard]] inline double student_t95(std::uint64_t df) {
  static constexpr std::array<double, 30> kTable = {
      12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
      2.201,  2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
      2.080,  2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042};
  if (df == 0) return 0.0;
  if (df <= kTable.size()) return kTable[df - 1];
  constexpr double z = 1.96;
  return z + (z * z * z + z) / (4.0 * static_cast<double>(df));
}

/// Mean and 95% confidence-interval halfwidth (t * s / sqrt(n), with the
/// Student-t quantile for n-1 degrees of freedom and the sample stddev
/// with the n-1 divisor) of a small replica set — the statistic behind
/// `dxbar_bench --seeds N`.
struct MeanCi {
  double mean = 0.0;
  double ci95 = 0.0;  ///< halfwidth; 0 for n < 2
};

/// Computes MeanCi over `values`; NaN entries (unmeasurable points,
/// e.g. latency past saturation) poison the mean like they poison a
/// single run, keeping a replicated sweep's gaps where the serial
/// sweep had them.
[[nodiscard]] inline MeanCi mean_ci95(const std::vector<double>& values) {
  MeanCi out;
  if (values.empty()) return out;
  double sum = 0.0;
  for (double v : values) sum += v;
  out.mean = sum / static_cast<double>(values.size());
  if (values.size() < 2) return out;
  double ss = 0.0;
  for (double v : values) ss += (v - out.mean) * (v - out.mean);
  const double sd =
      std::sqrt(ss / static_cast<double>(values.size() - 1));
  out.ci95 = student_t95(values.size() - 1) * sd /
             std::sqrt(static_cast<double>(values.size()));
  return out;
}

}  // namespace dxbar
