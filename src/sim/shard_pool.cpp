#include "sim/shard_pool.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace dxbar {

namespace {

void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Blocks until `a` holds `want` (want_equal) or anything but `want`,
/// and returns the value it saw.  Spins first, for the common case of
/// shards that finish a phase nearly together; yields next, so an
/// oversubscribed host can run whoever we wait for; parks on the futex
/// last.  The bounds are fixed, not tuned per host: pause(64) +
/// yield(4096) beat both a pure 16K-pause spin and the old condvar
/// handoff with two 4-shard processes sharing 4 hardware threads
/// (DESIGN.md §10).
std::uint32_t await(const std::atomic<std::uint32_t>& a, std::uint32_t want,
                    bool want_equal) noexcept {
  constexpr int kPauses = 64;
  constexpr int kYields = 4096;
  for (int i = 0;; ++i) {
    const std::uint32_t v = a.load(std::memory_order_acquire);
    if ((v == want) == want_equal) return v;
    if (i < kPauses) {
      cpu_relax();
    } else if (i < kPauses + kYields) {
      std::this_thread::yield();
    } else {
      a.wait(v, std::memory_order_acquire);
    }
  }
}

}  // namespace

ShardPool::ShardPool(int shards) : shards_(shards < 1 ? 1 : shards) {
  workers_.reserve(static_cast<std::size_t>(shards_ - 1));
  for (int s = 1; s < shards_; ++s) {
    workers_.emplace_back([this, s] { worker_loop(s); });
  }
}

ShardPool::~ShardPool() {
  stop_ = true;
  generation_.fetch_add(1, std::memory_order_release);
  generation_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ShardPool::run(const std::function<void(int)>& fn) {
  if (shards_ == 1) {  // no workers; nothing to publish
    fn(0);
    return;
  }
  job_ = &fn;
  remaining_.store(static_cast<std::uint32_t>(shards_ - 1),
                   std::memory_order_relaxed);
  generation_.fetch_add(1, std::memory_order_release);
  generation_.notify_all();

  fn(0);  // caller is shard 0

  await(remaining_, 0, /*want_equal=*/true);
  job_ = nullptr;
}

void ShardPool::worker_loop(int shard) {
  std::uint32_t seen = 0;
  for (;;) {
    seen = await(generation_, seen, /*want_equal=*/false);
    if (stop_) return;
    (*job_)(shard);
    if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      remaining_.notify_one();
    }
  }
}

}  // namespace dxbar
