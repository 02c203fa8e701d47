#include "sim/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "sim/replica_batch.hpp"
#include "sim/results_log.hpp"
#include "sim/sim_runner.hpp"
#include "snapshot/serialize.hpp"
#include "workload/factory.hpp"

namespace dxbar {
namespace {

/// Runs `cfg` to the warmup boundary and returns the warm state.
std::vector<std::uint8_t> warm_up(const SimConfig& cfg) {
  Network net(cfg);
  const auto workload = make_workload(cfg, net.mesh());
  net.set_workload(workload.get());
  advance_open_loop(net, cfg.warmup_cycles);
  SnapshotWriter w;
  save_open_loop_state(w, net, *workload);
  return w.take();
}

/// Runs the representative `configs[rep]` of a dynamics class, forked
/// from `warm_state` when non-null and cold otherwise, then prices each
/// sibling in `priced` from the same network's event counts.  A fork's
/// snapshot fingerprint must match the representative, which is the
/// statement that it shares the warmup; the fork and the pricing both
/// reproduce run_open_loop of their config byte for byte.
void run_class(const std::vector<SimConfig>& configs, std::size_t rep,
               const std::vector<std::size_t>& priced,
               const std::vector<std::uint8_t>* warm_state,
               std::vector<RunStats>& results) {
  const SimConfig& cfg = configs[rep];
  Network net(cfg);
  const auto workload = make_workload(cfg, net.mesh());
  net.set_workload(workload.get());
  if (warm_state != nullptr) {
    SnapshotReader r(*warm_state);
    load_open_loop_state(r, net, *workload);
  }
  results[rep] = finish_open_loop(net, *workload);
  for (const std::size_t j : priced) {
    results[j] = results[rep];
    fill_energy_stats(results[j], net.energy(), configs[j]);
  }
}

}  // namespace

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                  unsigned threads) {
  if (n == 0) return;
  unsigned workers = threads != 0 ? threads : std::thread::hardware_concurrency();
  if (workers == 0) workers = 4;
  if (workers > n) workers = static_cast<unsigned>(n);

  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  // Chunked atomic-counter work stealing: every worker claims a small
  // contiguous run of indices per fetch_add.  Chunks amortize counter
  // contention while staying small enough that imbalanced sweeps (the
  // saturated high-load points run much longer than low-load ones)
  // keep all workers busy until the range is exhausted.
  std::atomic<std::size_t> next{0};
  const std::size_t chunk = std::max<std::size_t>(
      1, n / (static_cast<std::size_t>(workers) * 8));
  std::mutex error_mu;
  std::exception_ptr error;
  const auto work = [&] {
    try {
      for (;;) {
        const std::size_t begin =
            next.fetch_add(chunk, std::memory_order_relaxed);
        if (begin >= n) return;
        const std::size_t end = std::min(begin + chunk, n);
        for (std::size_t i = begin; i < end; ++i) fn(i);
      }
    } catch (...) {
      next.store(n, std::memory_order_relaxed);
      const std::lock_guard<std::mutex> lock(error_mu);
      if (!error) error = std::current_exception();
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (unsigned w = 1; w < workers; ++w) pool.emplace_back(work);
  work();  // the calling thread participates instead of blocking
  for (auto& t : pool) t.join();
  if (error) std::rethrow_exception(error);
}

std::vector<RunStats> run_sweep(const std::vector<SimConfig>& configs,
                                unsigned threads, WarmupCache* cache,
                                SweepReport* report, ResultsLog* store) {
  struct Group {
    std::vector<std::size_t> members;
    std::vector<std::uint8_t> key;
    std::shared_ptr<const std::vector<std::uint8_t>> warm_state;
    bool from_cache = false;
  };

  // Points the store already holds are served as stored; only the
  // pending rest form classes and groups below.
  std::vector<RunStats> results(configs.size());
  std::vector<std::size_t> pending;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const RunStats* stored =
        store != nullptr ? store->find(configs[i]) : nullptr;
    if (stored != nullptr) {
      results[i] = *stored;
    } else {
      pending.push_back(i);
    }
  }

  // Dynamics classes: configs equal up to the pricing-only fields run
  // one simulation.  The lowest pending index represents its class; the
  // other members are priced from the representative's event counts.
  std::vector<std::size_t> reps;
  std::vector<std::vector<std::size_t>> priced;  // aligned with reps
  {
    std::map<std::vector<std::uint8_t>, std::size_t> class_of;
    for (const std::size_t i : pending) {
      const auto [it, inserted] =
          class_of.try_emplace(dynamics_signature(configs[i]), reps.size());
      if (inserted) {
        reps.push_back(i);
        priced.emplace_back();
      } else {
        priced[it->second].push_back(i);
      }
    }
  }

  // A representative can share a warmup when it is single-sharded and
  // actually has a warmup phase, and either carries an explicit
  // warmup_load (the measurement load is neutralized out of the
  // signature) or has at least one sibling representative identical up
  // to measure_seed / drain cap (seed replication without an explicit
  // warmup_load).
  const auto eligible = [](const SimConfig& cfg) {
    return cfg.shards == 1 && cfg.warmup_cycles > 0;
  };
  std::map<std::vector<std::uint8_t>, std::size_t> key_count;
  for (const std::size_t i : reps) {
    if (eligible(configs[i])) ++key_count[warmup_signature(configs[i])];
  }

  std::vector<Group> groups;
  std::map<std::vector<std::uint8_t>, std::size_t> group_of;
  // Per representative; -1 == cold run (no shared-warmup eligibility).
  std::vector<std::ptrdiff_t> group_index(reps.size(), -1);
  for (std::size_t k = 0; k < reps.size(); ++k) {
    const SimConfig& cfg = configs[reps[k]];
    if (!eligible(cfg)) continue;
    auto key = warmup_signature(cfg);
    if (cfg.warmup_load < 0.0 && key_count[key] < 2) continue;
    const auto [it, inserted] = group_of.try_emplace(key, groups.size());
    if (inserted) {
      groups.emplace_back();
      groups.back().key = std::move(key);
    }
    groups[it->second].members.push_back(reps[k]);
    group_index[k] = static_cast<std::ptrdiff_t>(it->second);
  }

  // Phase 1: one warmup per group — served from the session cache when
  // possible, executed and published into it otherwise.
  parallel_for(
      groups.size(),
      [&](std::size_t g) {
        Group& grp = groups[g];
        if (cache != nullptr) {
          if (auto hit = cache->find(grp.key)) {
            grp.warm_state = std::move(hit);
            grp.from_cache = true;
            return;
          }
        }
        auto state = warm_up(configs[grp.members.front()]);
        grp.warm_state =
            cache != nullptr
                ? cache->insert(grp.key, std::move(state))
                : std::make_shared<const std::vector<std::uint8_t>>(
                      std::move(state));
      },
      threads);

  // Phase 2: every representative on its own (grouped ones forked from
  // their group's warm state, the rest cold), pricing its siblings while
  // its network is alive, then recording the class into the store.
  parallel_for(
      reps.size(),
      [&](std::size_t k) {
        const std::ptrdiff_t g = group_index[k];
        run_class(configs, reps[k], priced[k],
                  g < 0 ? nullptr
                        : groups[static_cast<std::size_t>(g)].warm_state.get(),
                  results);
        if (store == nullptr) return;
        store->record(configs[reps[k]], results[reps[k]]);
        for (const std::size_t j : priced[k]) {
          store->record(configs[j], results[j]);
        }
      },
      threads);

  if (report != nullptr) {
    *report = SweepReport{};
    for (const Group& g : groups) {
      report->groups.push_back(g.members);
      if (cache != nullptr) ++(g.from_cache ? report->cache_hits
                                            : report->cache_misses);
    }
    report->priced_points = pending.size() - reps.size();
    report->cold_points = reps.size() - report->warm_points();
  }
  return results;
}

}  // namespace dxbar
