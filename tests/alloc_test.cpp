// Unit and property tests for alloc/: arbiters, separable allocator,
// unified dual-input allocator, fairness counter.
#include <gtest/gtest.h>

#include <array>
#include <span>
#include <utility>
#include <vector>

#include "alloc/arbiter.hpp"
#include "alloc/fairness.hpp"
#include "alloc/separable_allocator.hpp"
#include "alloc/unified_allocator.hpp"
#include "common/rng.hpp"

namespace dxbar {
namespace {

TEST(RoundRobin, GrantsRotate) {
  RoundRobinArbiter arb(4);
  EXPECT_EQ(arb.grant(0b1111), 0);
  EXPECT_EQ(arb.grant(0b1111), 1);
  EXPECT_EQ(arb.grant(0b1111), 2);
  EXPECT_EQ(arb.grant(0b1111), 3);
  EXPECT_EQ(arb.grant(0b1111), 0);
}

TEST(RoundRobin, SkipsNonRequesters) {
  RoundRobinArbiter arb(4);
  EXPECT_EQ(arb.grant(0b0100), 2);
  EXPECT_EQ(arb.grant(0b0011), 0);  // priority pointer at 3, wraps to 0
  EXPECT_EQ(arb.grant(0b0010), 1);
}

TEST(RoundRobin, NoRequests) {
  RoundRobinArbiter arb(4);
  EXPECT_EQ(arb.grant(0), -1);
  EXPECT_EQ(arb.pick(0), -1);
}

TEST(RoundRobin, FairnessOverManyCycles) {
  RoundRobinArbiter arb(3);
  int wins[3] = {0, 0, 0};
  for (int i = 0; i < 300; ++i) ++wins[arb.grant(0b111)];
  EXPECT_EQ(wins[0], 100);
  EXPECT_EQ(wins[1], 100);
  EXPECT_EQ(wins[2], 100);
}

TEST(PickOldest, FindsOldestAndHandlesNulls) {
  Flit a{.packet = 1, .born_at = 30};
  Flit b{.packet = 2, .born_at = 10};
  Flit c{.packet = 3, .born_at = 20};
  const Flit* cands[4] = {&a, nullptr, &b, &c};
  EXPECT_EQ(pick_oldest(cands), 2);

  const Flit* none[2] = {nullptr, nullptr};
  EXPECT_EQ(pick_oldest(none), -1);
}

// ---- separable allocator -----------------------------------------------

bool grants_are_legal(std::span<const std::uint32_t> req,
                      const std::array<int, kNumPorts>& grant,
                      int num_outputs) {
  std::vector<int> out_owner(static_cast<std::size_t>(num_outputs), -1);
  for (std::size_t i = 0; i < req.size(); ++i) {
    const int o = grant[i];
    if (o < 0) continue;
    if (!(req[i] & (1u << o))) return false;            // unrequested grant
    if (out_owner[static_cast<std::size_t>(o)] >= 0) return false;  // dup
    out_owner[static_cast<std::size_t>(o)] = static_cast<int>(i);
  }
  return true;
}

TEST(Separable, SingleRequestGranted) {
  SeparableAllocator alloc(5, 5);
  std::array<std::uint32_t, 5> req{};
  req[2] = 0b00010;  // input 2 wants output 1
  const auto g = alloc.allocate(req);
  EXPECT_EQ(g[2], 1);
  EXPECT_TRUE(grants_are_legal(req, g, 5));
}

TEST(Separable, ConflictGrantsExactlyOne) {
  SeparableAllocator alloc(5, 5);
  std::array<std::uint32_t, 5> req{};
  req[0] = req[1] = req[2] = 0b00001;  // all want output 0
  const auto g = alloc.allocate(req);
  int winners = 0;
  for (int i = 0; i < 5; ++i) {
    if (g[static_cast<std::size_t>(i)] == 0) ++winners;
  }
  EXPECT_EQ(winners, 1);
  EXPECT_TRUE(grants_are_legal(req, g, 5));
}

TEST(Separable, DisjointRequestsAllGranted) {
  SeparableAllocator alloc(5, 5);
  std::array<std::uint32_t, 5> req{};
  for (int i = 0; i < 5; ++i) req[static_cast<std::size_t>(i)] = 1u << i;
  const auto g = alloc.allocate(req);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(g[static_cast<std::size_t>(i)], i);
}

// Property: random request matrices always yield legal matchings, and
// any input whose every requested output went ungranted to anyone would
// contradict output-first arbitration (maximality at the output stage).
TEST(Separable, RandomRequestsAlwaysLegal) {
  SeparableAllocator alloc(5, 5);
  Rng rng(123);
  for (int iter = 0; iter < 2000; ++iter) {
    std::array<std::uint32_t, 5> req{};
    for (auto& r : req) r = static_cast<std::uint32_t>(rng()) & 0x1F;
    const auto g = alloc.allocate(req);
    ASSERT_TRUE(grants_are_legal(req, g, 5));
    // Output-stage maximality: a requested output with no winner at all
    // means no input requested it (stage 1 always picks a requester).
    std::uint32_t requested = 0, granted = 0;
    for (int i = 0; i < 5; ++i) {
      requested |= req[static_cast<std::size_t>(i)];
      if (g[static_cast<std::size_t>(i)] >= 0) {
        granted |= 1u << g[static_cast<std::size_t>(i)];
      }
    }
    // Every requested output was won by someone at stage 1; stage 2 can
    // drop it only if that input also won another output.  So at least
    // one grant exists whenever any request exists.
    if (requested != 0) {
      ASSERT_NE(granted, 0u);
    }
  }
}

TEST(Separable, LongRunFairness) {
  SeparableAllocator alloc(2, 1);
  std::array<std::uint32_t, 2> req = {1, 1};  // both always want output 0
  int wins[2] = {0, 0};
  for (int i = 0; i < 1000; ++i) {
    const auto g = alloc.allocate(req);
    for (int k = 0; k < 2; ++k) {
      if (g[static_cast<std::size_t>(k)] == 0) ++wins[k];
    }
  }
  EXPECT_EQ(wins[0] + wins[1], 1000);
  EXPECT_NEAR(wins[0], 500, 1);
}

// ---- unified dual-input allocator --------------------------------------

UnifiedCandidate cand(std::uint32_t mask, std::uint64_t age,
                      bool elevated = false) {
  return {true, mask, age, elevated};
}

bool unified_legal(const std::array<UnifiedPortRequest, kNumPorts>& req,
                   const UnifiedGrants& g) {
  std::array<int, kNumPorts> owner;
  owner.fill(-1);
  for (int p = 0; p < kNumPorts; ++p) {
    const auto& pg = g.port[static_cast<std::size_t>(p)];
    const auto& pr = req[static_cast<std::size_t>(p)];
    if (pg.incoming_out >= 0) {
      if (!pr.incoming.valid) return false;
      if (!(pr.incoming.request_mask & (1u << pg.incoming_out))) return false;
      if (owner[static_cast<std::size_t>(pg.incoming_out)] >= 0) return false;
      owner[static_cast<std::size_t>(pg.incoming_out)] = p;
    }
    if (pg.buffered_out >= 0) {
      if (!pr.buffered.valid) return false;
      if (!(pr.buffered.request_mask & (1u << pg.buffered_out))) return false;
      if (owner[static_cast<std::size_t>(pg.buffered_out)] >= 0) return false;
      owner[static_cast<std::size_t>(pg.buffered_out)] = p;
    }
  }
  return true;
}

TEST(Unified, DualGrantSameInputPort) {
  // The headline capability: I0 -> O2 while I0' -> O3 simultaneously.
  UnifiedAllocator alloc;
  std::array<UnifiedPortRequest, kNumPorts> req{};
  req[0].incoming = cand(1u << 2, 10);
  req[0].buffered = cand(1u << 3, 20);
  const auto g = alloc.allocate(req, true);
  EXPECT_EQ(g.port[0].incoming_out, 2);
  EXPECT_EQ(g.port[0].buffered_out, 3);
  EXPECT_TRUE(unified_legal(req, g));
}

TEST(Unified, ConflictSwapFiresWhenBindingsCross) {
  // Both flits of port 1 won outputs, but the naive binding crosses:
  // incoming wants only O4, buffered wants only O2; the won set is
  // {O2, O4} with O2 first — direct binding fails, swap fixes it.
  UnifiedAllocator alloc;
  std::array<UnifiedPortRequest, kNumPorts> req{};
  req[1].incoming = cand(1u << 4, 5);
  req[1].buffered = cand(1u << 2, 7);
  const auto g = alloc.allocate(req, true);
  EXPECT_EQ(g.port[1].incoming_out, 4);
  EXPECT_EQ(g.port[1].buffered_out, 2);
  EXPECT_GE(g.swaps, 1);
  EXPECT_TRUE(unified_legal(req, g));
}

TEST(Unified, IncomingPriorityWinsContestedOutput) {
  UnifiedAllocator alloc;
  std::array<UnifiedPortRequest, kNumPorts> req{};
  req[0].incoming = cand(1u << 1, 50);  // younger incoming
  req[2].buffered = cand(1u << 1, 10);  // older buffered
  const auto g = alloc.allocate(req, /*incoming_priority=*/true);
  EXPECT_EQ(g.port[0].incoming_out, 1);
  EXPECT_EQ(g.port[2].buffered_out, -1);

  // Fairness flip: the buffered flit now outranks the incoming one.
  const auto flipped = alloc.allocate(req, /*incoming_priority=*/false);
  EXPECT_EQ(flipped.port[0].incoming_out, -1);
  EXPECT_EQ(flipped.port[2].buffered_out, 1);
}

TEST(Unified, AgeBreaksTiesWithinClass) {
  UnifiedAllocator alloc;
  std::array<UnifiedPortRequest, kNumPorts> req{};
  req[0].incoming = cand(1u << 0, 30);
  req[1].incoming = cand(1u << 0, 10);  // older, must win
  const auto g = alloc.allocate(req, true);
  EXPECT_EQ(g.port[0].incoming_out, -1);
  EXPECT_EQ(g.port[1].incoming_out, 0);
}

TEST(Unified, ElevatedCandidateOutranksFavouredClass) {
  UnifiedAllocator alloc;
  std::array<UnifiedPortRequest, kNumPorts> req{};
  req[0].incoming = cand(1u << 0, 5);
  req[1].buffered = cand(1u << 0, 50, /*elevated=*/true);
  const auto g = alloc.allocate(req, true);
  // Elevated buffered ties at class 0 with the incoming flit; the older
  // (age 5) incoming still wins on age.
  EXPECT_EQ(g.port[0].incoming_out, 0);

  req[1].buffered.age = 1;  // now older too
  const auto g2 = alloc.allocate(req, true);
  EXPECT_EQ(g2.port[1].buffered_out, 0);
}

// Property: random request matrices always produce legal grants, and
// whenever a port's two flits requested two disjoint singleton outputs
// that no other port contests, both get granted.
TEST(Unified, RandomRequestsAlwaysLegal) {
  UnifiedAllocator alloc;
  Rng rng(77);
  for (int iter = 0; iter < 3000; ++iter) {
    std::array<UnifiedPortRequest, kNumPorts> req{};
    for (int p = 0; p < kNumPorts; ++p) {
      if (rng.bernoulli(0.6)) {
        req[static_cast<std::size_t>(p)].incoming =
            cand(static_cast<std::uint32_t>(rng()) & 0x1F, rng() & 0xFF);
      }
      if (rng.bernoulli(0.6)) {
        req[static_cast<std::size_t>(p)].buffered =
            cand(static_cast<std::uint32_t>(rng()) & 0x1F, rng() & 0xFF);
      }
    }
    const bool prio = rng.bernoulli(0.5);
    const auto g = alloc.allocate(req, prio);
    ASSERT_TRUE(unified_legal(req, g));
  }
}

TEST(Unified, UncontestedDisjointSingletonsBothGranted) {
  UnifiedAllocator alloc;
  Rng rng(99);
  for (int iter = 0; iter < 500; ++iter) {
    const int o1 = static_cast<int>(rng.below(kNumPorts));
    int o2 = static_cast<int>(rng.below(kNumPorts));
    if (o2 == o1) o2 = (o1 + 1) % kNumPorts;
    std::array<UnifiedPortRequest, kNumPorts> req{};
    req[3].incoming = cand(1u << o1, rng() & 0xFF);
    req[3].buffered = cand(1u << o2, rng() & 0xFF);
    const auto g = alloc.allocate(req, true);
    EXPECT_EQ(g.port[3].incoming_out, o1);
    EXPECT_EQ(g.port[3].buffered_out, o2);
  }
}

// ---- fairness counter ---------------------------------------------------

TEST(Fairness, FlipsAfterThresholdConsecutiveWins) {
  FairnessCounter fc(4);
  for (int i = 0; i < 3; ++i) {
    fc.record(true, false, true);
    EXPECT_FALSE(fc.flipped());
  }
  fc.record(true, false, true);
  EXPECT_TRUE(fc.flipped());
}

TEST(Fairness, WaitingWinResets) {
  FairnessCounter fc(4);
  fc.record(true, false, true);
  fc.record(true, false, true);
  fc.record(true, true, true);  // a waiting flit got through
  EXPECT_EQ(fc.count(), 0);
  EXPECT_FALSE(fc.flipped());
}

TEST(Fairness, CounterIdleWithoutWaiters) {
  FairnessCounter fc(2);
  for (int i = 0; i < 10; ++i) fc.record(false, false, true);
  EXPECT_FALSE(fc.flipped());
  EXPECT_EQ(fc.count(), 0);
}

TEST(Fairness, FlipClearsOnceServed) {
  FairnessCounter fc(2);
  fc.record(true, false, true);
  fc.record(true, false, true);
  EXPECT_TRUE(fc.flipped());
  fc.record(true, true, false);  // flip cycle: waiting flit served
  EXPECT_FALSE(fc.flipped());
}

// ---- equivalence with the loop-based reference implementations ---------
//
// The arbiters and allocators above are bit-scan rewrites of plain loop
// code.  The references below keep that loop code verbatim; the rewrites
// must return the same winners and leave the same state on every input.

/// Round-robin arbiter as a modulo scan from the priority pointer.
struct ReferenceRoundRobin {
  int n;
  int next = 0;

  [[nodiscard]] int pick(std::uint32_t requests) const {
    if (requests == 0) return -1;
    for (int k = 0; k < n; ++k) {
      const int i = (next + k) % n;
      if (requests & (1u << i)) return i;
    }
    return -1;
  }
  int grant(std::uint32_t requests) {
    const int winner = pick(requests);
    if (winner >= 0) next = (winner + 1) % n;
    return winner;
  }
};

/// An n-input arbiter whose priority pointer sits at `next`.
RoundRobinArbiter arbiter_at(int n, int next) {
  RoundRobinArbiter arb(n);
  arb.grant(1u << (next == 0 ? n - 1 : next - 1));
  return arb;
}

void expect_same_arbitration(int n, int next, std::uint32_t mask) {
  RoundRobinArbiter arb = arbiter_at(n, next);
  ASSERT_EQ(arb.priority_pointer(), next);
  ReferenceRoundRobin ref{n, next};
  ASSERT_EQ(arb.pick(mask), ref.pick(mask))
      << "n=" << n << " next=" << next << " mask=" << mask;
  ASSERT_EQ(arb.grant(mask), ref.grant(mask))
      << "n=" << n << " next=" << next << " mask=" << mask;
  ASSERT_EQ(arb.priority_pointer(), ref.next)
      << "n=" << n << " next=" << next << " mask=" << mask;
}

TEST(AllocEquivalence, RoundRobinExhaustiveUpTo8Inputs) {
  // Every 8-bit mask, so requests at or above n are covered too.
  for (int n = 1; n <= 8; ++n) {
    for (int next = 0; next < n; ++next) {
      for (std::uint32_t mask = 0; mask < 256; ++mask) {
        expect_same_arbitration(n, next, mask);
      }
    }
  }
}

TEST(AllocEquivalence, RoundRobinRandomUpTo32Inputs) {
  Rng rng(2024);
  for (int n = 1; n <= 32; ++n) {
    for (int next = 0; next < n; ++next) {
      for (int iter = 0; iter < 400; ++iter) {
        // Dense, sparse and single-bit masks over all 32 bits.
        std::uint32_t mask = static_cast<std::uint32_t>(rng());
        if (iter % 3 == 1) mask &= static_cast<std::uint32_t>(rng());
        if (iter % 3 == 2) mask = 1u << rng.below(32);
        expect_same_arbitration(n, next, mask);
      }
    }
  }
}

/// Separable allocator built from reference arbiters, loop by loop.
struct ReferenceSeparable {
  int num_inputs;
  int num_outputs;
  std::vector<ReferenceRoundRobin> output_arbiters;
  std::vector<ReferenceRoundRobin> input_arbiters;

  ReferenceSeparable(int ni, int no)
      : num_inputs(ni),
        num_outputs(no),
        output_arbiters(static_cast<std::size_t>(no), ReferenceRoundRobin{ni}),
        input_arbiters(static_cast<std::size_t>(ni), ReferenceRoundRobin{no}) {}

  std::vector<int> allocate(const std::vector<std::uint32_t>& requests) {
    std::vector<int> output_winner(static_cast<std::size_t>(num_outputs), -1);
    for (int o = 0; o < num_outputs; ++o) {
      std::uint32_t req = 0;
      for (int i = 0; i < num_inputs; ++i) {
        if (requests[static_cast<std::size_t>(i)] & (1u << o)) req |= 1u << i;
      }
      output_winner[static_cast<std::size_t>(o)] =
          output_arbiters[static_cast<std::size_t>(o)].pick(req);
    }
    std::vector<int> grant(static_cast<std::size_t>(num_inputs), -1);
    for (int i = 0; i < num_inputs; ++i) {
      std::uint32_t won = 0;
      for (int o = 0; o < num_outputs; ++o) {
        if (output_winner[static_cast<std::size_t>(o)] == i) won |= 1u << o;
      }
      grant[static_cast<std::size_t>(i)] =
          input_arbiters[static_cast<std::size_t>(i)].pick(won);
    }
    for (int i = 0; i < num_inputs; ++i) {
      const int o = grant[static_cast<std::size_t>(i)];
      if (o >= 0) {
        input_arbiters[static_cast<std::size_t>(i)].grant(1u << o);
        output_arbiters[static_cast<std::size_t>(o)].grant(1u << i);
      }
    }
    return grant;
  }
};

TEST(AllocEquivalence, SeparableMatchesReferenceOverLongRuns) {
  for (const auto& [ni, no] : {std::pair{5, 5}, std::pair{2, 1},
                               std::pair{3, 4}, std::pair{5, 2}}) {
    SeparableAllocator alloc(ni, no);
    ReferenceSeparable ref(ni, no);
    Rng rng(static_cast<std::uint64_t>(ni * 10 + no));
    for (int cycle = 0; cycle < 20000; ++cycle) {
      // Request bits at or above num_outputs must be ignored.
      std::vector<std::uint32_t> req(static_cast<std::size_t>(ni));
      for (auto& r : req) r = static_cast<std::uint32_t>(rng()) & 0xFF;
      const std::array<int, kNumPorts> got = alloc.allocate(req);
      const std::vector<int> want = ref.allocate(req);
      for (int i = 0; i < kNumPorts; ++i) {
        ASSERT_EQ(got[static_cast<std::size_t>(i)],
                  i < ni ? want[static_cast<std::size_t>(i)] : -1)
            << ni << "x" << no << " cycle " << cycle << " input " << i;
      }
    }
  }
}

/// The unified allocator as first written: priority keys recomputed per
/// (output, port) pair and won outputs gathered into a list.
UnifiedGrants reference_unified_allocate(
    const std::array<UnifiedPortRequest, kNumPorts>& req,
    bool incoming_priority) {
  struct Key {
    int klass;
    std::uint64_t age;
    [[nodiscard]] bool beats(const Key& o) const {
      if (klass != o.klass) return klass < o.klass;
      return age < o.age;
    }
  };
  auto key_of = [&](const UnifiedCandidate& c, bool is_incoming) {
    const bool favoured = c.elevated || (is_incoming == incoming_priority);
    return Key{favoured ? 0 : 1, c.age};
  };

  UnifiedGrants result;
  std::array<int, kNumPorts> output_winner;
  output_winner.fill(-1);
  for (int o = 0; o < kNumPorts; ++o) {
    int best_port = -1;
    Key best_key{2, ~std::uint64_t{0}};
    for (int p = 0; p < kNumPorts; ++p) {
      const UnifiedPortRequest& r = req[static_cast<std::size_t>(p)];
      Key port_key{2, ~std::uint64_t{0}};
      bool requests = false;
      if (r.incoming.valid && (r.incoming.request_mask & (1u << o))) {
        port_key = key_of(r.incoming, true);
        requests = true;
      }
      if (r.buffered.valid && (r.buffered.request_mask & (1u << o))) {
        const Key k = key_of(r.buffered, false);
        if (!requests || k.beats(port_key)) port_key = k;
        requests = true;
      }
      if (requests && (best_port < 0 || port_key.beats(best_key))) {
        best_port = p;
        best_key = port_key;
      }
    }
    output_winner[static_cast<std::size_t>(o)] = best_port;
  }

  for (int p = 0; p < kNumPorts; ++p) {
    const UnifiedPortRequest& r = req[static_cast<std::size_t>(p)];
    std::vector<int> won;
    for (int o = 0; o < kNumPorts; ++o) {
      if (output_winner[static_cast<std::size_t>(o)] == p) won.push_back(o);
    }
    if (won.empty()) continue;
    const std::uint32_t in_mask = r.incoming.valid ? r.incoming.request_mask : 0;
    const std::uint32_t buf_mask = r.buffered.valid ? r.buffered.request_mask : 0;
    const int o1 = won[0];
    const int o2 = won.size() > 1 ? won[1] : -1;
    auto legal = [](std::uint32_t mask, int o) {
      return o >= 0 && (mask & (1u << o)) != 0;
    };
    const int direct = (legal(in_mask, o1) ? 1 : 0) + (legal(buf_mask, o2) ? 1 : 0);
    const int swapped = (legal(in_mask, o2) ? 1 : 0) + (legal(buf_mask, o1) ? 1 : 0);
    UnifiedPortGrant& g = result.port[static_cast<std::size_t>(p)];
    if (swapped > direct) {
      if (legal(in_mask, o2)) g.incoming_out = o2;
      if (legal(buf_mask, o1)) g.buffered_out = o1;
      if (o2 >= 0) ++result.swaps;
    } else {
      if (legal(in_mask, o1)) g.incoming_out = o1;
      if (legal(buf_mask, o2)) g.buffered_out = o2;
    }
  }
  return result;
}

TEST(AllocEquivalence, UnifiedMatchesReferenceOnRandomRequests) {
  UnifiedAllocator alloc;
  Rng rng(4242);
  // Invalid candidates keep random masks and ages (they must be ignored),
  // masks carry bits above the five ports, and ages are drawn from a
  // small range so priority ties are common.
  auto random_candidate = [&rng] {
    UnifiedCandidate c;
    c.valid = rng.bernoulli(0.7);
    c.request_mask = static_cast<std::uint32_t>(rng()) & 0xFF;
    c.age = rng() & 0xF;
    c.elevated = rng.bernoulli(0.1);
    return c;
  };
  for (int iter = 0; iter < 100000; ++iter) {
    std::array<UnifiedPortRequest, kNumPorts> req{};
    for (UnifiedPortRequest& r : req) {
      r.incoming = random_candidate();
      r.buffered = random_candidate();
    }
    for (const bool prio : {true, false}) {
      const UnifiedGrants got = alloc.allocate(req, prio);
      const UnifiedGrants want = reference_unified_allocate(req, prio);
      ASSERT_EQ(got.swaps, want.swaps) << "iter " << iter << " prio " << prio;
      for (std::size_t p = 0; p < kNumPorts; ++p) {
        ASSERT_EQ(got.port[p].incoming_out, want.port[p].incoming_out)
            << "iter " << iter << " prio " << prio << " port " << p;
        ASSERT_EQ(got.port[p].buffered_out, want.port[p].buffered_out)
            << "iter " << iter << " prio " << prio << " port " << p;
      }
    }
  }
}

}  // namespace
}  // namespace dxbar
