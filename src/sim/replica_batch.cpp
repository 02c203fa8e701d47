#include "sim/replica_batch.hpp"

#include "snapshot/serialize.hpp"

namespace dxbar {

std::shared_ptr<const std::vector<std::uint8_t>> WarmupCache::find(
    const std::vector<std::uint8_t>& key) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = map_.find(key);
  if (it == map_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  return it->second;
}

std::shared_ptr<const std::vector<std::uint8_t>> WarmupCache::insert(
    const std::vector<std::uint8_t>& key, std::vector<std::uint8_t> state) {
  auto sp = std::make_shared<const std::vector<std::uint8_t>>(
      std::move(state));
  std::lock_guard<std::mutex> lock(mu_);
  const auto [it, inserted] = map_.try_emplace(key, std::move(sp));
  return it->second;
}

std::size_t WarmupCache::entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

std::vector<std::uint8_t> warmup_signature(const SimConfig& cfg) {
  // The full config with every field that cannot influence the warmup
  // phase neutralized: members of one signature replay an identical
  // warmup.  The offered load matters only when no explicit warmup_load
  // pins the warmup rate.
  SimConfig key = cfg;
  reset_fields(key, kWarmupNeutral);
  if (key.warmup_load >= 0.0) key.offered_load = 0.0;
  return config_bytes(key);
}

std::vector<std::uint8_t> dynamics_signature(const SimConfig& cfg) {
  SimConfig key = cfg;
  reset_fields(key, kPricingOnly);
  return config_bytes(key);
}

}  // namespace dxbar
