// Tests for sim/shard_pool: run() is a full barrier, the 1-shard pool
// runs inline, and a pool shuts down cleanly whether its workers are
// spinning, parked on the futex, or never saw a job.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "sim/shard_pool.hpp"

namespace dxbar {
namespace {

/// Long enough for idle workers to exhaust the pause and yield stages
/// and park in atomic wait.
constexpr auto kParkDelay = std::chrono::milliseconds(100);

TEST(ShardPool, RunIsAFullBarrier) {
  constexpr int kShards = 4;
  constexpr std::uint64_t kCalls = 100000;
  ShardPool pool(kShards);
  ASSERT_EQ(pool.shards(), kShards);
  // Plain (non-atomic) slots: each shard writes only its own, and the
  // caller reads all of them between calls, so any missing barrier is a
  // stale read here and a data race under ThreadSanitizer.
  std::vector<std::uint64_t> slots(kShards, 0);
  const std::function<void(int)> bump = [&slots](int s) {
    ++slots[static_cast<std::size_t>(s)];
  };
  std::uint64_t bad_calls = 0;
  for (std::uint64_t call = 1; call <= kCalls; ++call) {
    pool.run(bump);
    for (std::uint64_t v : slots) {
      if (v != call) {
        ++bad_calls;
        break;
      }
    }
  }
  EXPECT_EQ(bad_calls, 0U);
}

TEST(ShardPool, OneShardPoolRunsInlineOnTheCaller) {
  for (int requested : {1, 0, -3}) {
    ShardPool pool(requested);
    EXPECT_EQ(pool.shards(), 1);
    const std::thread::id caller = std::this_thread::get_id();
    int calls = 0;
    for (int i = 0; i < 1000; ++i) {
      pool.run([&](int s) {
        EXPECT_EQ(s, 0);
        EXPECT_EQ(std::this_thread::get_id(), caller);
        ++calls;
      });
    }
    EXPECT_EQ(calls, 1000);
  }
}

TEST(ShardPool, ParkedWorkersWakeForRunAndForShutdown) {
  std::vector<int> hits(3, 0);
  {
    ShardPool pool(3);
    const std::function<void(int)> hit = [&hits](int s) {
      ++hits[static_cast<std::size_t>(s)];
    };
    pool.run(hit);
    std::this_thread::sleep_for(kParkDelay);  // workers park in wait
    pool.run(hit);                            // ...and wake for a job
    std::this_thread::sleep_for(kParkDelay);
  }  // destroyed with its workers parked
  EXPECT_EQ(hits, (std::vector<int>{2, 2, 2}));
}

TEST(ShardPool, PoolWithoutRunShutsDown) {
  { ShardPool pool(4); }  // workers may not have started waiting yet
  {
    ShardPool pool(4);
    std::this_thread::sleep_for(kParkDelay);
  }  // workers parked, never handed a job
  SUCCEED();
}

}  // namespace
}  // namespace dxbar
