// Fixed-bucket latency histogram.
//
// End-to-end request latencies are tracked as bucket counts, not a
// sample vector, so the closed-loop workload composes with everything
// the sample-vector StatsCollector cannot: snapshots stay O(buckets)
// regardless of run length, two replicas' histograms merge by adding
// counters, and save/restore round-trips are bit-exact.
//
// Layout: latencies below kLinearBuckets cycles get one exact bucket
// each; above that, one major bucket per power of two split into 16
// linear sub-buckets (constant ~6% relative quantile error), up to
// 2^(kMaxMajor+1) cycles where the final bucket absorbs the tail.
// Count, sum and max are tracked exactly, so the mean and the maximum
// carry no bucketing error — only the interior quantiles do.
#pragma once

#include <array>
#include <cstdint>

#include "common/types.hpp"
#include "snapshot/snapshot.hpp"

namespace dxbar {

class LatencyHistogram {
 public:
  static constexpr std::uint64_t kLinearBuckets = 128;  // exact below this
  static constexpr int kSubBits = 4;                    // 16 sub-buckets
  static constexpr int kFirstMajor = 7;                 // 2^7 == kLinear
  static constexpr int kMaxMajor = 39;                  // tail above 2^40
  static constexpr std::size_t kNumBuckets =
      kLinearBuckets +
      static_cast<std::size_t>(kMaxMajor - kFirstMajor + 1) * (1u << kSubBits);

  void record(Cycle latency) noexcept {
    ++buckets_[bucket_index(latency)];
    ++count_;
    sum_ += latency;
    if (latency > max_) max_ = latency;
  }

  /// Adds another histogram's samples into this one.
  void merge(const LatencyHistogram& o) noexcept {
    for (std::size_t i = 0; i < kNumBuckets; ++i) buckets_[i] += o.buckets_[i];
    count_ += o.count_;
    sum_ += o.sum_;
    if (o.max_ > max_) max_ = o.max_;
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] double mean() const noexcept {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) /
                             static_cast<double>(count_);
  }
  [[nodiscard]] double max() const noexcept {
    return static_cast<double>(max_);
  }

  /// Quantile by bucket walk: the representative value of the bucket
  /// holding the rank-floor(q*(n-1)) sample.  Exact below kLinearBuckets
  /// cycles; bucket midpoint above.
  [[nodiscard]] double quantile(double q) const noexcept {
    if (count_ == 0) return 0.0;
    if (q < 0.0) q = 0.0;
    if (q > 1.0) q = 1.0;
    const std::uint64_t rank = static_cast<std::uint64_t>(
        q * static_cast<double>(count_ - 1));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kNumBuckets; ++i) {
      seen += buckets_[i];
      if (seen > rank) return representative(i);
    }
    return static_cast<double>(max_);
  }

  // ---- snapshot protocol ---------------------------------------------
  // Sparse: (index, count) pairs for the nonzero buckets only, so the
  // writer counts them and the reader range-checks each index.
  void save(SnapshotWriter& w) const {
    std::uint64_t nonzero = 0;
    for (std::uint64_t b : buckets_) nonzero += b != 0 ? 1 : 0;
    w(count_, sum_, max_, nonzero);
    for (std::size_t i = 0; i < kNumBuckets; ++i) {
      if (buckets_[i] != 0) w(static_cast<std::uint32_t>(i), buckets_[i]);
    }
  }
  void load(SnapshotReader& r) {
    buckets_.fill(0);
    r(count_, sum_, max_);
    const std::uint64_t nonzero = r.count();
    for (std::uint64_t i = 0; i < nonzero; ++i) {
      std::uint32_t idx = 0;
      r(idx);
      if (idx >= kNumBuckets) {
        throw SnapshotError("latency histogram bucket index out of range");
      }
      r(buckets_[idx]);
    }
  }

 private:
  [[nodiscard]] static std::size_t bucket_index(Cycle v) noexcept {
    if (v < kLinearBuckets) return static_cast<std::size_t>(v);
    int major = 63 - __builtin_clzll(v);
    if (major > kMaxMajor) {
      major = kMaxMajor;
      v = (Cycle{1} << (kMaxMajor + 1)) - 1;  // clamp into the last bucket
    }
    const std::size_t sub =
        static_cast<std::size_t>(v >> (major - kSubBits)) & ((1u << kSubBits) - 1);
    return kLinearBuckets +
           static_cast<std::size_t>(major - kFirstMajor) * (1u << kSubBits) +
           sub;
  }

  [[nodiscard]] static double representative(std::size_t idx) noexcept {
    if (idx < kLinearBuckets) return static_cast<double>(idx);
    const std::size_t rel = idx - kLinearBuckets;
    const int major = kFirstMajor + static_cast<int>(rel >> kSubBits);
    const std::size_t sub = rel & ((1u << kSubBits) - 1);
    const double width =
        static_cast<double>(Cycle{1} << (major - kSubBits));
    return static_cast<double>(Cycle{1} << major) +
           (static_cast<double>(sub) + 0.5) * width;
  }

  std::array<std::uint64_t, kNumBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t max_ = 0;
};

}  // namespace dxbar
