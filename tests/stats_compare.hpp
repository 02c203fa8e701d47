// The tests' one bit-exact RunStats comparator.  It walks
// run_stats_fields(), so a field added to the table is compared by
// every test that uses it.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <initializer_list>
#include <string_view>
#include <vector>

#include "snapshot/serialize.hpp"

namespace dxbar {

/// The binary codec's bytes of `s`: every stored field, then req_hist.
inline std::vector<std::uint8_t> stats_bytes(const RunStats& s) {
  SnapshotWriter w;
  save_run_stats(w, s);
  return w.take();
}

/// Success when `a` and `b` agree bit for bit in every field but the
/// keys in `skip` (doubles by bit pattern, req_hist by its saved bytes);
/// otherwise names the first field that differs.
inline ::testing::AssertionResult same_stats(
    const RunStats& a, const RunStats& b,
    std::initializer_list<std::string_view> skip = {}) {
  auto result = ::testing::AssertionSuccess();
  for (const StatsField& f : run_stats_fields()) {
    if (!f.stored() || std::ranges::find(skip, f.key) != skip.end()) continue;
    std::visit([&](auto m) {
      if (std::memcmp(&(a.*m), &(b.*m), sizeof(a.*m)) == 0) return;
      result = ::testing::AssertionFailure() << f.key << ": " << a.*m
                                             << " vs " << b.*m;
    }, f.member);
    if (!result) return result;
  }
  SnapshotWriter ha;
  SnapshotWriter hb;
  a.req_hist.save(ha);
  b.req_hist.save(hb);
  if (ha.data() == hb.data()) return result;
  return ::testing::AssertionFailure() << "req_hist differs";
}

}  // namespace dxbar
