#include "sim/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <thread>

#include "sim/replica_batch.hpp"
#include "sim/sim_runner.hpp"
#include "snapshot/serialize.hpp"
#include "workload/factory.hpp"

namespace dxbar {
namespace {

constexpr std::uint32_t kSecWorkload = section_tag("WKLD");

/// Runs `cfg` to the warmup boundary and returns the warm state: the
/// network sections plus the WKLD workload section.
std::vector<std::uint8_t> warm_up(const SimConfig& cfg) {
  Network net(cfg);
  const auto workload = make_workload(cfg, net.mesh());
  net.set_workload(workload.get());
  advance_open_loop(net, cfg.warmup_cycles);
  SnapshotWriter w;
  net.save(w);
  w.begin_section(kSecWorkload);
  workload->save_state(w);
  w.end_section();
  return w.take();
}

/// Forks one replica: its own network and workload, restored from the
/// group's warm state, then measured and drained exactly as the tail of
/// run_open_loop.  The snapshot's structural fingerprint must match
/// `cfg`, which is the statement that `cfg` shares the warmup.
RunStats run_forked(const SimConfig& cfg,
                    const std::vector<std::uint8_t>& warm_state) {
  Network net(cfg);
  const auto workload = make_workload(cfg, net.mesh());
  net.set_workload(workload.get());
  SnapshotReader r(warm_state);
  net.load(r);
  (void)r.expect_section(kSecWorkload);
  workload->load_state(r);
  return finish_open_loop(net, *workload);
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
  const auto work = [&] {
    for (;;) {
      const std::size_t begin =
          next.fetch_add(chunk, std::memory_order_relaxed);
      if (begin >= n) return;
      const std::size_t end = std::min(begin + chunk, n);
      for (std::size_t i = begin; i < end; ++i) fn(i);
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (unsigned w = 1; w < workers; ++w) pool.emplace_back(work);
  work();  // the calling thread participates instead of blocking
  for (auto& t : pool) t.join();
}

std::vector<RunStats> run_sweep(const std::vector<SimConfig>& configs,
                                unsigned threads, WarmupCache* cache,
                                SweepReport* report) {
  struct Group {
    std::vector<std::size_t> members;
    std::vector<std::uint8_t> key;
    std::shared_ptr<const std::vector<std::uint8_t>> warm_state;
    bool from_cache = false;
  };

  // A config can share a warmup when it is single-sharded and actually
  // has a warmup phase, and either carries an explicit warmup_load (the
  // measurement load is neutralized out of the signature) or has at
  // least one sibling identical up to measure_seed / drain cap (seed
  // replication without an explicit warmup_load).
  const auto eligible = [](const SimConfig& cfg) {
    return cfg.shards == 1 && cfg.warmup_cycles > 0;
  };
  std::map<std::vector<std::uint8_t>, std::size_t> key_count;
  for (const SimConfig& cfg : configs) {
    if (eligible(cfg)) ++key_count[warmup_signature(cfg)];
  }

  std::vector<Group> groups;
  std::map<std::vector<std::uint8_t>, std::size_t> group_of;
  // -1 == cold run (no shared-warmup eligibility).
  std::vector<std::ptrdiff_t> group_index(configs.size(), -1);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const SimConfig& cfg = configs[i];
    if (!eligible(cfg)) continue;
    auto key = warmup_signature(cfg);
    if (cfg.warmup_load < 0.0 && key_count[key] < 2) continue;
    const auto [it, inserted] = group_of.try_emplace(key, groups.size());
    if (inserted) {
      groups.emplace_back();
      groups.back().key = std::move(key);
    }
    groups[it->second].members.push_back(i);
    group_index[i] = static_cast<std::ptrdiff_t>(it->second);
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

  // Phase 2: every config on its own — grouped ones forked from their
  // group's warm state, the rest cold.
  std::vector<RunStats> results(configs.size());
  parallel_for(
      configs.size(),
      [&](std::size_t i) {
        const std::ptrdiff_t g = group_index[i];
        results[i] =
            g < 0 ? run_open_loop(configs[i])
                  : run_forked(configs[i],
                               *groups[static_cast<std::size_t>(g)].warm_state);
      },
      threads);

  if (report != nullptr) {
    *report = SweepReport{};
    for (const Group& g : groups) {
      report->groups.push_back(g.members);
      if (cache != nullptr) ++(g.from_cache ? report->cache_hits
                                            : report->cache_misses);
    }
    report->cold_points = configs.size() - report->warm_points();
  }
  return results;
}

}  // namespace dxbar
