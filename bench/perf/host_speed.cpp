#include "host_speed.hpp"

#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include "span_tracer.hpp"

namespace dxbar::perf {
namespace {

constexpr std::size_t kTableEntries = std::size_t{1} << 16;  // 256 KiB
constexpr int kSteps = 500'000;

/// One cycle through every entry (Sattolo's shuffle, fixed LCG), so the
/// chase visits the whole table in an order no prefetcher follows.
const std::vector<std::uint32_t>& chase_table() {
  static const std::vector<std::uint32_t> table = [] {
    std::vector<std::uint32_t> t(kTableEntries);
    std::iota(t.begin(), t.end(), 0U);
    std::uint64_t x = 1;
    for (std::size_t i = t.size() - 1; i > 0; --i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      std::swap(t[i], t[(x >> 33) % i]);
    }
    return t;
  }();
  return table;
}

/// Keeps the chase from being optimized away.
volatile std::uint64_t g_sink = 0;

/// `steps` chase steps from entry `i`; returns where the chase stopped.
std::uint32_t chase(std::uint32_t i, int steps) {
  const std::vector<std::uint32_t>& t = chase_table();
  std::uint64_t acc = 0;
  for (int k = 0; k < steps; ++k) {
    i = t[i];
    if ((i & 1U) != 0) {
      acc += i * 3ULL;
    } else {
      acc ^= i >> 1;
    }
  }
  g_sink = acc;
  return i;
}

}  // namespace

double reference_seconds() {
  (void)chase_table();  // build once, outside every timed pass
  const std::int64_t t0 = now_ns();
  (void)chase(0, kSteps);
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

}  // namespace dxbar::perf
