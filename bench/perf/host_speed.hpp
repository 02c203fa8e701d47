// Host-speed reference for dxbar_perf's bounded host times.
//
// The CPUs of a shared host change speed by tens of percent over seconds
// to minutes, each on its own, as other tenants come and go: raw wall
// times of one commit then differ more between runs than any bound worth
// setting.  So the benchmark runs a fixed reference kernel on the same
// thread right before and after each single-threaded timed section, and
// reports the section's time scaled to the reference's nominal duration —
// seconds as they would read with the CPU at the speed the baseline was
// recorded at.  The kernel is benchmark-owned code (a pointer chase with
// data-dependent branches over a 256 KiB table, simulator-like integer
// work), so no change to the simulator can move it.
//
// Sections on four threads (the 4-shard network, the session's
// experiments) stay raw: their time waits on the slowest thread at every
// barrier, which no reference pass reproduces.  Over ten runs the
// correction spread the 4-shard window by 7.5% where the raw time spread
// 4.7%, and the session's batch by 5.9% where the raw time spread 6.0%.
#pragma once

namespace dxbar::perf {

/// Nominal duration of one reference pass: a round figure near its
/// median on the recording host (4.7 ms), so corrected times read close
/// to that host's raw ones.
inline constexpr double kReferenceNominalS = 0.005;

/// Seconds one reference pass takes on the calling thread.
double reference_seconds();

/// `wall_s` scaled to the nominal reference speed, given the reference
/// time measured around it.
[[nodiscard]] inline double speed_corrected(double wall_s, double reference_s) {
  return wall_s * kReferenceNominalS / reference_s;
}

}  // namespace dxbar::perf
