// Warm-snapshot sharing and pricing classes for replica sweeps (see
// sim/sweep.hpp).
//
// run_sweep first collapses configs that differ only in pricing-only
// fields into one dynamics class (simulated once, the others repriced
// from its event counts), then groups the classes' representatives by
// their warmup signature, runs each group's warmup once, and forks every
// member from the snapshot.  The session cache below lets those warmups
// outlive one sweep call, so `--all` and `--seeds N` warm each
// (design, warmup) pair once per session.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "common/config.hpp"

namespace dxbar {

/// Session-wide cache of warm snapshots, keyed by the warmup signature
/// (the serialized config with measurement-only fields neutralized —
/// structural identity plus warmup phase identity).  Threads share it
/// across experiments so `--all` warms each (design, warmup) pair once.
class WarmupCache {
 public:
  /// Returns the cached snapshot for `key` (counts a hit), or nullptr
  /// (counts a miss).
  [[nodiscard]] std::shared_ptr<const std::vector<std::uint8_t>> find(
      const std::vector<std::uint8_t>& key);
  /// Stores `state` under `key` and returns the stored snapshot.  When
  /// a concurrent thread raced the same warmup in first, its (identical
  /// — warmups are deterministic) bytes win and are returned instead.
  std::shared_ptr<const std::vector<std::uint8_t>> insert(
      const std::vector<std::uint8_t>& key, std::vector<std::uint8_t> state);

  [[nodiscard]] std::size_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::size_t misses() const noexcept { return misses_; }
  [[nodiscard]] std::size_t entries() const;

 private:
  mutable std::mutex mu_;
  std::map<std::vector<std::uint8_t>,
           std::shared_ptr<const std::vector<std::uint8_t>>>
      map_;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
};

/// The warmup-signature cache key for `cfg`: configs with equal
/// signatures replay an identical warmup (exposed for tests).
std::vector<std::uint8_t> warmup_signature(const SimConfig& cfg);

/// The dynamics-class key for `cfg`: the serialized config with the
/// pricing-only fields (tech_node, flit_bits) reset to their defaults.
/// Those fields feed only the energy/area model, never the cycle-level
/// behaviour, so configs with equal signatures produce identical event
/// counts and RunStats apart from the energy fields.  This is the one
/// place that lists the pricing-only fields.
std::vector<std::uint8_t> dynamics_signature(const SimConfig& cfg);

}  // namespace dxbar
