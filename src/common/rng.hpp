// Deterministic, fast pseudo-random streams.
//
// All stochastic behaviour in the simulator (Bernoulli injection, traffic
// destinations, fault placement) draws from these generators so that a
// given seed reproduces a run bit-for-bit.  SplitMix64 seeds xoshiro256**.
#pragma once

#include <cstdint>

#include "snapshot/snapshot.hpp"

namespace dxbar {

/// SplitMix64 — used to expand a single user seed into stream seeds.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256** 1.0 — the workhorse generator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed) noexcept {
    SplitMix64 sm(seed);
    for (auto& s : s_) s = sm.next();
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~result_type{0}; }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound) without modulo bias (Lemire).
  std::uint32_t below(std::uint32_t bound) noexcept {
    std::uint64_t x = (*this)() >> 32;
    std::uint64_t m = x * bound;
    return static_cast<std::uint32_t>(m >> 32);
  }

  /// Uniform double in [0, 1).
  double uniform() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with success probability p.
  bool bernoulli(double p) noexcept { return uniform() < p; }

  /// Snapshot protocol: the four state words capture the stream exactly.
  template <class Self, class Ar>
  static void fields(Self& self, Ar& ar) {
    ar(self.s_);
  }
  void save(SnapshotWriter& w) const { w(*this); }
  void load(SnapshotReader& r) { r(*this); }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
};

}  // namespace dxbar
