// Persistent fork-join worker pool for sharded Network stepping.
//
// `run(fn)` invokes fn(s) for every shard s in [0, shards); the calling
// thread executes shard 0 itself and the pool's shards-1 resident
// workers execute the rest.  run() returns only after every shard
// finished, so each call is a full barrier — Network::step() issues one
// run() per phase, which is exactly the per-phase synchronization the
// sharded cycle semantics require.
//
// Synchronization is two atomics: run() publishes the job by bumping
// `generation_` (release), each worker counts itself out of
// `remaining_` (acq_rel), and the caller returns once it reads 0
// (acquire).  Waiting on either counter backs off in three stages — a
// few pause instructions, then std::this_thread::yield(), then a
// futex-backed atomic wait — so back-to-back phases hand over without
// a system call while an idle pool still parks and burns no CPU,
// and an oversubscribed host gets its cores back through the yields
// (DESIGN.md §10).  The pool is ThreadSanitizer-clean: every ordering
// question reduces to what fn does.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

namespace dxbar {

class ShardPool {
 public:
  /// Spawns `shards - 1` worker threads (a 1-shard pool has none).
  explicit ShardPool(int shards);
  ~ShardPool();

  ShardPool(const ShardPool&) = delete;
  ShardPool& operator=(const ShardPool&) = delete;

  [[nodiscard]] int shards() const noexcept { return shards_; }

  /// Runs fn(0) .. fn(shards-1) concurrently; returns when all are done.
  /// Not reentrant and not thread-safe: one run() at a time, from the
  /// thread that owns the pool.
  void run(const std::function<void(int shard)>& fn);

 private:
  void worker_loop(int shard);

  int shards_;

  /// Written by the owner before the generation bump that publishes it.
  const std::function<void(int)>* job_ = nullptr;
  bool stop_ = false;  ///< published like job_, by the final bump
  /// Bumped per run() (and once at shutdown); 32-bit so atomic wait maps
  /// straight onto a futex.  Workers compare for inequality, so wrap-
  /// around is harmless.
  alignas(64) std::atomic<std::uint32_t> generation_{0};
  /// Workers still running the current job.
  alignas(64) std::atomic<std::uint32_t> remaining_{0};
  /// Last, so the state the workers use is built before them.
  std::vector<std::thread> workers_;
};

}  // namespace dxbar
