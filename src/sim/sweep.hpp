// Parallel parameter sweeps.
//
// Simulation points are independent, deterministic, and CPU-bound, so
// benches fan them out over a small thread pool.  Results come back in
// input order regardless of completion order.
#pragma once

#include <functional>
#include <vector>

#include "common/config.hpp"
#include "common/stats.hpp"

namespace dxbar {

class ResultsLog;   // sim/results_log.hpp
class WarmupCache;  // sim/replica_batch.hpp

/// How a run_sweep call executed its pending configs (those a results
/// log did not already hold): one entry per shared-warmup group (member
/// indices into the config vector), the count of simulated configs that
/// ran cold, the count of configs priced from a sibling's simulation
/// instead of simulated, and how the group warmups were served by the
/// session cache (both counts zero when no cache was supplied).
/// warm + cold + priced == the pending count.  Lets callers log which
/// groups were formed (the experiment harness prints this per grid).
struct SweepReport {
  std::vector<std::vector<std::size_t>> groups;
  std::size_t cold_points = 0;
  std::size_t priced_points = 0;
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;

  [[nodiscard]] std::size_t warm_points() const noexcept {
    std::size_t n = 0;
    for (const auto& g : groups) n += g.size();
    return n;
  }
};

/// Runs every config open-loop, using up to `threads` worker threads
/// (0 == hardware concurrency).  Results align with `configs` and are
/// byte-for-byte equal to run_open_loop of each config.
///
/// Configs that share a warmup share ONE warmup execution: the group's
/// network is advanced to the warmup boundary once, snapshotted (served
/// from / published into `cache` when non-null), and every member builds
/// its own network, restores the snapshot and finishes its measurement
/// and drain from there.  A group is either configs that differ only in
/// workload-level fields (offered_load, drain cap, measure_seed) and
/// carry an explicit warmup_load, or configs identical up to
/// measure_seed / drain cap (seed replication).  Because the synthetic
/// workload consumes exactly one RNG draw per node per cycle regardless
/// of the rate, and the measure_seed reseed fires after the snapshot
/// point, the fork is bit-identical to the cold run of each member.
///
/// Configs with warmup_cycles == 0, sharded configs (shards > 1; they
/// parallelize inside one simulation instead), and configs with no
/// warmup to share run cold in the same call.
///
/// Before any of that, configs are collapsed into dynamics classes
/// (equal dynamics_signature: equal up to the pricing-only fields
/// tech_node and flit_bits).  Only each class's representative, its
/// lowest index, is grouped and simulated; every other member copies the
/// representative's RunStats and has its energy fields priced from the
/// same integer event counts at its own operating point
/// (fill_energy_stats, the step finish_open_loop itself uses).
///
/// With a results `log` (built for exactly `configs`), the points it
/// already holds are served from it before classes and groups form, so
/// a group whose members are all stored runs no warmup; every other
/// point is recorded into the log by its worker as soon as its class
/// finishes.  A kill then loses only the classes in flight.  A failed
/// append throws ResumeFileError on the calling thread.
std::vector<RunStats> run_sweep(const std::vector<SimConfig>& configs,
                                unsigned threads = 0,
                                WarmupCache* cache = nullptr,
                                SweepReport* report = nullptr,
                                ResultsLog* log = nullptr);

/// Generic parallel map over an index range [0, n): `fn(i)` must be
/// thread-safe and is invoked exactly once per index.  Work is claimed
/// in small chunks off a shared atomic counter (work stealing), so
/// imbalanced ranges keep every worker busy; the result is independent
/// of the thread count.  If `fn` throws, unclaimed indices are skipped
/// and the first exception is rethrown on the calling thread once every
/// worker has stopped.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                  unsigned threads = 0);

}  // namespace dxbar
