// Unit tests for common/: types, rng, fixed queue, small vector, flit
// pool, config, stats.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/config.hpp"
#include "common/fixed_queue.hpp"
#include "common/flit.hpp"
#include "common/flit_pool.hpp"
#include "common/rng.hpp"
#include "common/small_vec.hpp"
#include "common/stats.hpp"
#include "common/text.hpp"

namespace dxbar {
namespace {

TEST(Text, GlobMatchStarAndQuestion) {
  EXPECT_TRUE(glob_match("*", "anything"));
  EXPECT_TRUE(glob_match("fig*", "fig5"));
  EXPECT_TRUE(glob_match("fig*", "fig"));
  EXPECT_FALSE(glob_match("fig*", "table1"));
  EXPECT_TRUE(glob_match("fig1?", "fig10"));
  EXPECT_FALSE(glob_match("fig1?", "fig1"));
  EXPECT_TRUE(glob_match("*_sat*", "table_saturation"));
  EXPECT_TRUE(glob_match("a*b*c", "aXXbYYc"));
  EXPECT_FALSE(glob_match("a*b*c", "aXXbYY"));
  EXPECT_TRUE(glob_match("", ""));
  EXPECT_FALSE(glob_match("", "x"));
  EXPECT_TRUE(glob_match("fig5", "fig5"));  // literal, no wildcards
}

TEST(Types, OppositeIsInvolution) {
  for (Direction d : kLinkDirs) {
    EXPECT_EQ(opposite(opposite(d)), d);
    EXPECT_NE(opposite(d), d);
  }
  EXPECT_EQ(opposite(Direction::Local), Direction::Local);
}

TEST(Types, PortIndexRoundTrip) {
  for (int i = 0; i < kNumPorts; ++i) {
    EXPECT_EQ(port_index(port_from_index(i)), i);
  }
}

TEST(Flit, AgeOrderingIsTotalAndDeterministic) {
  Flit a{.packet = 1, .born_at = 10};
  Flit b{.packet = 2, .born_at = 5};
  EXPECT_TRUE(b.older_than(a));
  EXPECT_FALSE(a.older_than(b));

  Flit c{.packet = 3, .born_at = 10};
  EXPECT_TRUE(a.older_than(c));  // same age: lower packet id wins
  EXPECT_FALSE(c.older_than(a));
  EXPECT_FALSE(a.older_than(a));
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42), c(43);
  bool diverged = false;
  for (int i = 0; i < 100; ++i) {
    const auto x = a();
    EXPECT_EQ(x, b());
    if (x != c()) diverged = true;
  }
  EXPECT_TRUE(diverged);
}

TEST(Rng, BelowInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.below(10), 10u);
  }
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(9);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double x = r.uniform();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
    sum += x;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(FixedQueue, FifoOrder) {
  FixedQueue<int> q(3);
  EXPECT_TRUE(q.empty());
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push(2));
  EXPECT_TRUE(q.push(3));
  EXPECT_TRUE(q.full());
  EXPECT_FALSE(q.try_push(4));  // overflow rejected, nothing lost
  EXPECT_EQ(q.pop(), 1);
  EXPECT_TRUE(q.push(4));
  EXPECT_EQ(q.pop(), 2);
  EXPECT_EQ(q.pop(), 3);
  EXPECT_EQ(q.pop(), 4);
  EXPECT_TRUE(q.empty());
}

TEST(FixedQueue, TryPushProbesWithoutAsserting) {
  FixedQueue<int> q(2);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_FALSE(q.try_push(3));
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.front(), 1);
}

#if defined(GTEST_HAS_DEATH_TEST) && !defined(NDEBUG)
// push() (unlike try_push) promises space exists; violating that is a
// programming error that must be caught loudly in debug builds instead
// of silently truncating traffic.
TEST(FixedQueueDeathTest, PushToFullAsserts) {
  FixedQueue<int> q(1);
  EXPECT_TRUE(q.push(1));
  EXPECT_DEATH((void)q.push(2), "full");
}

TEST(FixedQueueDeathTest, PopFromEmptyAsserts) {
  FixedQueue<int> q(1);
  EXPECT_DEATH((void)q.pop(), "empty");
}
#endif

TEST(FixedQueue, WrapsAroundManyTimes) {
  FixedQueue<int> q(4);
  int next_in = 0, next_out = 0;
  for (int round = 0; round < 100; ++round) {
    while (!q.full()) q.push(next_in++);
    while (!q.empty()) EXPECT_EQ(q.pop(), next_out++);
  }
  EXPECT_EQ(next_in, next_out);
}

TEST(FixedQueue, AtIndexesFromHead) {
  FixedQueue<int> q(4);
  q.push(10);
  q.push(11);
  q.push(12);
  q.pop();
  q.push(13);
  EXPECT_EQ(q.at(0), 11);
  EXPECT_EQ(q.at(1), 12);
  EXPECT_EQ(q.at(2), 13);
}

// SmallVec leaves its storage uninitialised, so these read only the live
// prefix; under ASan/UBSan they also check that copies and reuse never
// touch a slot outside it.
TEST(SmallVec, CopyAndAssignPartlyFilled) {
  SmallVec<Flit, 5> a;
  for (PacketId p = 1; p <= 3; ++p) a.push_back(Flit{.packet = p, .hops = 7});

  const SmallVec<Flit, 5> copy(a);
  SmallVec<Flit, 5> assigned;
  assigned.push_back(Flit{.packet = 99});
  assigned = a;
  a[0].packet = 42;  // copies are independent of the source
  a.push_back(Flit{.packet = 4});

  const SmallVec<Flit, 5>& assigned_ref = assigned;
  for (const SmallVec<Flit, 5>* v : {&copy, &assigned_ref}) {
    ASSERT_EQ(v->size(), 3u);
    for (std::size_t i = 0; i < v->size(); ++i) {
      EXPECT_EQ((*v)[i].packet, i + 1);
      EXPECT_EQ((*v)[i].hops, 7);
    }
  }
  EXPECT_EQ(a.size(), 4u);
  EXPECT_EQ(a[0].packet, 42u);
}

TEST(SmallVec, ClearAndReuse) {
  SmallVec<int, 4> v;
  EXPECT_TRUE(v.empty());
  for (int i = 0; i < 4; ++i) v.push_back(i);
  EXPECT_EQ(v.size(), 4u);
  v.clear();
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.begin(), v.end());
  EXPECT_FALSE(v.contains(0));
  v.push_back(10);
  v.push_back(11);
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v[0], 10);
  EXPECT_EQ(v[1], 11);
  EXPECT_EQ(std::count(v.begin(), v.end(), 0), 0);
}

struct Keyed {
  int key;
  int tag;
  bool operator==(const Keyed&) const = default;
};

TEST(SmallVec, InsertionSortAndContainsAtEverySize) {
  constexpr std::size_t kN = 6;
  // Keys with repeats so stability is visible: tags record push order.
  constexpr std::array<int, kN> keys = {3, 1, 3, 0, 1, 2};
  for (std::size_t n = 0; n <= kN; ++n) {
    SCOPED_TRACE("size " + std::to_string(n));
    SmallVec<Keyed, kN> v;
    for (std::size_t i = 0; i < n; ++i) {
      v.push_back({keys[i], static_cast<int>(i)});
    }
    insertion_sort(v, [](const Keyed& a, const Keyed& b) {
      return a.key < b.key;
    });
    ASSERT_EQ(v.size(), n);
    for (std::size_t i = 1; i < n; ++i) {
      EXPECT_TRUE(v[i - 1].key < v[i].key ||
                  (v[i - 1].key == v[i].key && v[i - 1].tag < v[i].tag));
    }
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_TRUE(v.contains({keys[i], static_cast<int>(i)}));
    }
    EXPECT_FALSE(v.contains({keys[0], static_cast<int>(n)}));
  }
}

// --- PooledFlitDeque ------------------------------------------------------

Flit queued_flit(PacketId packet, std::uint16_t len) {
  Flit f;
  f.packet = packet;
  f.packet_len = len;
  f.src = 3;
  f.dst = 9;
  f.born_at = 100 + packet;
  f.injected_at = kNotInjected;
  return f;
}

std::vector<std::pair<PacketId, std::uint16_t>> contents(
    const PooledFlitDeque& q) {
  std::vector<std::pair<PacketId, std::uint16_t>> out;
  q.for_each([&](const Flit& f) { out.emplace_back(f.packet, f.seq); });
  return out;
}

std::vector<std::uint8_t> saved(const PooledFlitDeque& q) {
  SnapshotWriter w;
  q.save(w);
  return w.take();
}

/// The queue stream for `flits` written one flit at a time.
std::vector<std::uint8_t> per_flit_stream(const std::vector<Flit>& flits) {
  SnapshotWriter w;
  w.u64(flits.size());
  for (const Flit& f : flits) save_flit(w, f);
  return w.take();
}

TEST(PooledFlitDeque, RunPopsOneFlitAtATimeInSeqOrder) {
  FlitPool pool;
  PooledFlitDeque q;
  q.attach_pool(&pool);
  q.push_run(queued_flit(7, 5), 5);
  EXPECT_EQ(q.size(), 5u);
  EXPECT_EQ(pool.live(), 1u);
  const Flit* front = &q.front();
  for (std::uint16_t s = 0; s < 5; ++s) {
    ASSERT_FALSE(q.empty());
    EXPECT_EQ(&q.front(), front);  // the head slot advances in place
    EXPECT_EQ(q.front().seq, s);
    const Flit f = q.pop_front();
    EXPECT_EQ(f.packet, 7u);
    EXPECT_EQ(f.seq, s);
    EXPECT_EQ(f.packet_len, 5);
    EXPECT_EQ(f.born_at, 107u);
    EXPECT_EQ(q.size(), 4u - s);
    EXPECT_EQ(pool.live(), s < 4 ? 1u : 0u);  // the last flit frees it
  }
  EXPECT_TRUE(q.empty());
}

TEST(PooledFlitDeque, PushFrontRetransmitGoesAheadOfARun) {
  FlitPool pool;
  PooledFlitDeque q;
  q.attach_pool(&pool);
  q.push_run(queued_flit(7, 3), 3);
  (void)q.pop_front();
  Flit retransmit = queued_flit(4, 2);
  retransmit.seq = 1;
  retransmit.retransmits = 1;
  retransmit.injected_at = 50;
  q.push_front(retransmit);
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(pool.live(), 2u);
  EXPECT_EQ(q.front().packet, 4u);
  const Flit f = q.pop_front();
  EXPECT_EQ(f.packet, 4u);
  EXPECT_EQ(f.seq, 1);
  EXPECT_EQ(f.retransmits, 1);
  EXPECT_EQ(f.injected_at, 50u);
  EXPECT_EQ(contents(q),
            (std::vector<std::pair<PacketId, std::uint16_t>>{{7, 1}, {7, 2}}));
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(pool.live(), 0u);
}

TEST(PooledFlitDeque, ForEachExpandsRuns) {
  FlitPool pool;
  PooledFlitDeque q;
  q.attach_pool(&pool);
  q.push_run(queued_flit(7, 3), 3);
  q.push_run(queued_flit(8, 2), 2);
  // A flit continuing the tail's run joins its slot.
  Flit more = queued_flit(8, 2);
  more.seq = 2;
  q.push_back(more);
  EXPECT_EQ(contents(q), (std::vector<std::pair<PacketId, std::uint16_t>>{
                             {7, 0}, {7, 1}, {7, 2}, {8, 0}, {8, 1}, {8, 2}}));
  EXPECT_EQ(q.size(), 6u);
  EXPECT_EQ(pool.live(), 2u);
}

TEST(PooledFlitDeque, SavedRunIsByteIdenticalToSavedFlits) {
  FlitPool pool;
  PooledFlitDeque q;
  q.attach_pool(&pool);
  q.push_run(queued_flit(7, 5), 5);
  q.push_run(queued_flit(8, 2), 2);
  (void)q.pop_front();

  std::vector<Flit> flits;
  for (std::uint16_t s = 1; s < 5; ++s) {
    flits.push_back(queued_flit(7, 5));
    flits.back().seq = s;
  }
  for (std::uint16_t s = 0; s < 2; ++s) {
    flits.push_back(queued_flit(8, 2));
    flits.back().seq = s;
  }
  EXPECT_EQ(saved(q), per_flit_stream(flits));
}

TEST(PooledFlitDeque, LoadReformsRunsOnlyAcrossSeq) {
  // Three flits of one packet re-form one run; a variant of the next
  // seq that differs in any other field starts a slot of its own.
  const std::vector<std::function<void(Flit&)>> variants = {
      [](Flit& f) { f.packet += 1; },
      [](Flit& f) { f.packet_len += 1; },
      [](Flit& f) { f.src += 1; },
      [](Flit& f) { f.dst += 1; },
      [](Flit& f) { f.injected_at = 12; },
      [](Flit& f) { f.born_at += 1; },
      [](Flit& f) { f.vc = 1; },
      [](Flit& f) { f.cls = 1; },
      [](Flit& f) { f.deflections = 1; },
      [](Flit& f) { f.retransmits = 1; },
      [](Flit& f) { f.hops = 1; },
      [](Flit& f) { f.seq += 1; },  // a gap in seq
      [](Flit& f) { f.seq -= 1; },  // a repeated seq
  };
  for (std::size_t v = 0; v <= variants.size(); ++v) {
    SCOPED_TRACE("variant " + std::to_string(v));
    std::vector<Flit> flits;
    for (std::uint16_t s = 0; s < 4; ++s) {
      flits.push_back(queued_flit(7, 8));
      flits.back().seq = s;
    }
    const bool intact = v == variants.size();
    if (!intact) variants[v](flits.back());
    const auto bytes = per_flit_stream(flits);

    FlitPool pool;
    PooledFlitDeque q;
    q.attach_pool(&pool);
    SnapshotReader r(bytes);
    q.load(r);
    EXPECT_EQ(q.size(), 4u);
    EXPECT_EQ(pool.live(), intact ? 1u : 2u);
    EXPECT_EQ(saved(q), bytes);
  }

  // A seq of 65535 is never continued by a wrapped-around seq of 0.
  std::vector<Flit> wrap(2, queued_flit(7, 8));
  wrap[0].seq = 0xFFFF;
  const auto bytes = per_flit_stream(wrap);
  FlitPool pool;
  PooledFlitDeque q;
  q.attach_pool(&pool);
  SnapshotReader r(bytes);
  q.load(r);
  EXPECT_EQ(pool.live(), 2u);
  EXPECT_EQ(saved(q), bytes);
}

TEST(Config, DefaultsValid) {
  SimConfig cfg;
  EXPECT_EQ(cfg.validate(), "");
}

TEST(Config, OverridesApply) {
  SimConfig cfg;
  EXPECT_EQ(apply_override(cfg, "design=bless"), "");
  EXPECT_EQ(cfg.design, RouterDesign::FlitBless);
  EXPECT_EQ(apply_override(cfg, "routing=wf"), "");
  EXPECT_EQ(cfg.routing, RoutingAlgo::WestFirst);
  EXPECT_EQ(apply_override(cfg, "load=0.55"), "");
  EXPECT_DOUBLE_EQ(cfg.offered_load, 0.55);
  EXPECT_EQ(apply_override(cfg, "pattern=tornado"), "");
  EXPECT_EQ(cfg.pattern, TrafficPattern::Tornado);
  EXPECT_EQ(apply_override(cfg, "width=4"), "");
  EXPECT_EQ(cfg.mesh_width, 4);
  EXPECT_EQ(apply_override(cfg, "faults=0.5"), "");
  EXPECT_DOUBLE_EQ(cfg.fault_fraction, 0.5);
}

TEST(Config, RejectsBadInput) {
  SimConfig cfg;
  EXPECT_NE(apply_override(cfg, "nonsense=1"), "");
  EXPECT_NE(apply_override(cfg, "design=unknown"), "");
  EXPECT_NE(apply_override(cfg, "load=abc"), "");
  EXPECT_NE(apply_override(cfg, "noequals"), "");
  // Integers must fill the token and fit the member: no wrap-around, no
  // sign on an unsigned member, no truncated fraction.
  for (const char* bad : {"width=4294967298", "buffer_depth=4294967300",
                          "mlp=8589934593", "warmup=-1", "seed=-1",
                          "width=8.5"}) {
    SimConfig c;
    EXPECT_NE(apply_override(c, bad), "") << bad;
  }
}

TEST(Config, ValidateCatchesBadRanges) {
  SimConfig cfg;
  cfg.offered_load = 1.5;
  EXPECT_NE(cfg.validate(), "");
  cfg = SimConfig{};
  cfg.mesh_width = 1;
  EXPECT_NE(cfg.validate(), "");
  cfg = SimConfig{};
  cfg.fault_fraction = -0.1;
  EXPECT_NE(cfg.validate(), "");
  cfg = SimConfig{};
  cfg.buffer_depth = 0;
  EXPECT_NE(cfg.validate(), "");
  // A Flit's seq and packet_len are 16-bit.
  cfg = SimConfig{};
  cfg.packet_length = kMaxPacketLength + 1;
  EXPECT_NE(cfg.validate(), "");
  cfg = SimConfig{};
  cfg.request_length = kMaxPacketLength + 1;
  EXPECT_NE(cfg.validate(), "");
}

TEST(Config, ParseDesignNames) {
  RouterDesign d;
  EXPECT_TRUE(parse_design("DXbar", d));
  EXPECT_EQ(d, RouterDesign::DXbar);
  EXPECT_TRUE(parse_design("buffered8", d));
  EXPECT_EQ(d, RouterDesign::Buffered8);
  EXPECT_TRUE(parse_design("unified", d));
  EXPECT_EQ(d, RouterDesign::UnifiedXbar);
  EXPECT_TRUE(parse_design("scarab", d));
  EXPECT_EQ(d, RouterDesign::Scarab);
  EXPECT_FALSE(parse_design("", d));
}

TEST(Stats, WindowedThroughputCountsOnlyWindowEjections) {
  StatsCollector sc(100, 200, 4);
  Flit f;
  sc.on_flit_ejected(f, 50);    // before window
  sc.on_flit_ejected(f, 100);   // in window
  sc.on_flit_ejected(f, 199);   // in window
  sc.on_flit_ejected(f, 200);   // after window
  const RunStats s = sc.summarize(0.5, true);
  EXPECT_EQ(s.flits_ejected, 2u);
  // 2 flits / (100 cycles * 4 nodes)
  EXPECT_DOUBLE_EQ(s.accepted_load, 2.0 / 400.0);
}

TEST(Stats, LatencyAveragesOnlyWindowPackets) {
  StatsCollector sc(100, 200, 4);
  PacketRecord in_window{.id = 1, .length = 1, .created = 150,
                         .injected = 150, .completed = 170};
  PacketRecord outside{.id = 2, .length = 1, .created = 50,
                       .injected = 50, .completed = 90};
  sc.on_packet_completed(in_window);
  sc.on_packet_completed(outside);
  const RunStats s = sc.summarize(0.5, true);
  EXPECT_EQ(s.packets_completed, 1u);
  EXPECT_DOUBLE_EQ(s.avg_packet_latency, 20.0);
}

TEST(Stats, MeanCi95UsesStudentTForNMinusOneDegreesOfFreedom) {
  // Replicas alternating 0, 2: mean 1, sample stddev s known in closed
  // form, so the halfwidth pins the quantile t = ci95 * sqrt(n) / s.
  const auto t_of = [](std::size_t n) {
    std::vector<double> v(n);
    for (std::size_t i = 0; i < n; ++i) v[i] = (i % 2 == 0) ? 0.0 : 2.0;
    const MeanCi mc = mean_ci95(v);
    EXPECT_DOUBLE_EQ(mc.mean, 1.0);
    const double s = std::sqrt(static_cast<double>(n) /
                               static_cast<double>(n - 1));
    return mc.ci95 * std::sqrt(static_cast<double>(n)) / s;
  };
  EXPECT_NEAR(t_of(2), 12.706, 1e-9);
  EXPECT_NEAR(t_of(4), 3.182, 1e-9);
  EXPECT_NEAR(t_of(30), 2.045, 1e-9);
  // Past the table the quantile keeps falling toward the normal limit.
  EXPECT_LT(student_t95(31), student_t95(30));
  EXPECT_NEAR(student_t95(1000000), 1.96, 1e-5);
  EXPECT_EQ(mean_ci95({5.0}).ci95, 0.0);
}

}  // namespace
}  // namespace dxbar
