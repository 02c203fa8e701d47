// Tests for traffic/: pattern definitions, Bernoulli injection rates,
// the SPLASH-2 substitute, and trace I/O.
#include <gtest/gtest.h>

#include <sstream>

#include "traffic/patterns.hpp"
#include "traffic/splash.hpp"
#include "traffic/trace_io.hpp"
#include "traffic/traffic_gen.hpp"

namespace dxbar {
namespace {

// Collects everything a workload injects.
class CapturingInjector final : public Injector {
 public:
  struct Entry {
    NodeId src, dst;
    int length;
    Cycle when;
  };

  PacketId inject_packet(NodeId src, NodeId dst, int length,
                         Cycle now) override {
    entries.push_back({src, dst, length, now});
    return static_cast<PacketId>(entries.size());
  }

  std::vector<Entry> entries;
};

TEST(Patterns, DeterministicPatternsArePermutations) {
  const Mesh m(8, 8);
  Rng rng(1);
  for (TrafficPattern p :
       {TrafficPattern::BitReversal, TrafficPattern::Butterfly,
        TrafficPattern::Complement, TrafficPattern::Transpose,
        TrafficPattern::PerfectShuffle, TrafficPattern::Neighbor,
        TrafficPattern::Tornado}) {
    std::array<int, 64> hits{};
    for (NodeId s = 0; s < 64; ++s) {
      const NodeId d = pattern_destination(p, m, s, rng);
      ASSERT_LT(d, 64u);
      ++hits[d];
    }
    for (int h : hits) {
      EXPECT_EQ(h, 1) << "pattern " << to_string(p) << " is not a bijection";
    }
  }
}

TEST(Patterns, KnownValues) {
  const Mesh m(8, 8);
  Rng rng(1);
  // Complement of node 0 (000000) is node 63.
  EXPECT_EQ(pattern_destination(TrafficPattern::Complement, m, 0, rng), 63u);
  // Bit reversal of 0b000001 on 6 bits is 0b100000 = 32.
  EXPECT_EQ(pattern_destination(TrafficPattern::BitReversal, m, 1, rng), 32u);
  // Transpose of (3, 1) = node 11 is (1, 3) = node 25.
  EXPECT_EQ(pattern_destination(TrafficPattern::Transpose, m, m.node(3, 1), rng),
            m.node(1, 3));
  // Neighbor of (7, 0) wraps to (0, 0).
  EXPECT_EQ(pattern_destination(TrafficPattern::Neighbor, m, m.node(7, 0), rng),
            m.node(0, 0));
  // Tornado from (0, 2) goes ceil(8/2)-1 = 3 to the east.
  EXPECT_EQ(pattern_destination(TrafficPattern::Tornado, m, m.node(0, 2), rng),
            m.node(3, 2));
  // Butterfly swaps MSB/LSB: 0b000001 -> 0b100000.
  EXPECT_EQ(pattern_destination(TrafficPattern::Butterfly, m, 1, rng), 32u);
  // Perfect shuffle rotates left: 0b100000 -> 0b000001.
  EXPECT_EQ(pattern_destination(TrafficPattern::PerfectShuffle, m, 32, rng),
            1u);
}

TEST(Patterns, UniformRandomNeverSelf) {
  const Mesh m(8, 8);
  Rng rng(42);
  for (int i = 0; i < 5000; ++i) {
    const NodeId s = rng.below(64);
    const NodeId d =
        pattern_destination(TrafficPattern::UniformRandom, m, s, rng);
    ASSERT_NE(d, s);
    ASSERT_LT(d, 64u);
  }
}

TEST(Patterns, UniformRandomCoversAllDestinations) {
  const Mesh m(4, 4);
  Rng rng(7);
  std::array<int, 16> hits{};
  for (int i = 0; i < 4000; ++i) {
    ++hits[pattern_destination(TrafficPattern::UniformRandom, m, 0, rng)];
  }
  EXPECT_EQ(hits[0], 0);
  for (NodeId d = 1; d < 16; ++d) EXPECT_GT(hits[d], 150);
}

TEST(Patterns, HotspotBiasInNUR) {
  const Mesh m(8, 8);
  Rng rng(5);
  int hot = 0;
  const int total = 20000;
  for (int i = 0; i < total; ++i) {
    const NodeId s = rng.below(64);
    const NodeId d =
        pattern_destination(TrafficPattern::NonUniformRandom, m, s, rng);
    if (is_hotspot(m, d)) ++hot;
  }
  // 4/64 nodes would get ~6.3% under UR; NUR adds 25% directed traffic.
  const double frac = static_cast<double>(hot) / total;
  EXPECT_GT(frac, 0.20);
  EXPECT_LT(frac, 0.40);
}

TEST(Patterns, HotspotGroupIsCenterFour) {
  const Mesh m(8, 8);
  int count = 0;
  for (NodeId n = 0; n < 64; ++n) {
    if (is_hotspot(m, n)) ++count;
  }
  EXPECT_EQ(count, 4);
  EXPECT_TRUE(is_hotspot(m, m.node(3, 3)));
  EXPECT_TRUE(is_hotspot(m, m.node(4, 4)));
  EXPECT_FALSE(is_hotspot(m, m.node(0, 0)));
}

TEST(Synthetic, InjectionRateMatchesOfferedLoad) {
  SimConfig cfg;
  cfg.offered_load = 0.4;
  cfg.packet_length = 5;
  const Mesh m(cfg.mesh_width, cfg.mesh_height);
  SyntheticWorkload w(cfg, m);
  CapturingInjector sink;
  const int cycles = 4000;
  for (Cycle t = 0; t < static_cast<Cycle>(cycles); ++t) {
    w.begin_cycle(t, sink);
  }
  // Offered flits per node per cycle should approximate the load.
  double flits = 0;
  for (const auto& e : sink.entries) flits += e.length;
  const double rate = flits / (64.0 * cycles);
  EXPECT_NEAR(rate, 0.4, 0.02);
}

TEST(Synthetic, DisableStopsInjection) {
  SimConfig cfg;
  cfg.offered_load = 0.5;
  const Mesh m(cfg.mesh_width, cfg.mesh_height);
  SyntheticWorkload w(cfg, m);
  CapturingInjector sink;
  w.set_injection_enabled(false);
  for (Cycle t = 0; t < 100; ++t) w.begin_cycle(t, sink);
  EXPECT_TRUE(sink.entries.empty());
}

TEST(Splash, ProfilesCoverPaperApplications) {
  const auto& profiles = splash_profiles();
  ASSERT_EQ(profiles.size(), 9u);
  for (const char* name : {"FFT", "LU", "Radiosity", "Ocean", "Raytrace",
                           "Radix", "Water", "FMM", "Barnes"}) {
    EXPECT_NE(find_splash_profile(name), nullptr) << name;
  }
  EXPECT_EQ(find_splash_profile("fft"), find_splash_profile("FFT"));
  EXPECT_EQ(find_splash_profile("nope"), nullptr);
}

TEST(Splash, RequestsGoToMemoryControllers) {
  SimConfig cfg;
  const Mesh m(8, 8);
  SplashWorkload w(*find_splash_profile("Radix"), cfg, m);
  CapturingInjector sink;
  for (Cycle t = 0; t < 500; ++t) w.begin_cycle(t, sink);
  ASSERT_FALSE(sink.entries.empty());
  for (const auto& e : sink.entries) {
    const Coord c = m.coord(e.dst);
    EXPECT_EQ(c.x % 2, 1) << "request to a non-MC node";
    EXPECT_EQ(c.y % 2, 1);
    EXPECT_EQ(e.length, 1);  // control packet
  }
}

TEST(Splash, MshrThrottlesOutstanding) {
  SimConfig cfg;
  const Mesh m(8, 8);
  MachineParams machine;
  machine.mshr_entries = 2;
  SplashWorkload w(*find_splash_profile("Radix"), cfg, m, machine);
  CapturingInjector sink;
  // Without any deliveries, each node can issue at most 2 requests.
  for (Cycle t = 0; t < 2000; ++t) w.begin_cycle(t, sink);
  std::array<int, 64> per_node{};
  for (const auto& e : sink.entries) ++per_node[e.src];
  for (int c : per_node) EXPECT_LE(c, 2);
}

TEST(Splash, RepliesCompleteTransactions) {
  SimConfig cfg;
  const Mesh m(8, 8);
  SplashWorkload w(*find_splash_profile("Water"), cfg, m);
  CapturingInjector sink;

  // Drive the workload with an oracle that instantly "delivers" every
  // injected packet after one cycle.
  std::vector<PacketRecord> pending;
  PacketId next = 1;
  class Oracle final : public Injector {
   public:
    explicit Oracle(std::vector<PacketRecord>& out, PacketId& next)
        : out_(out), next_(next) {}
    PacketId inject_packet(NodeId src, NodeId dst, int length,
                           Cycle now) override {
      PacketRecord r;
      r.id = next_++;
      r.src = src;
      r.dst = dst;
      r.length = static_cast<std::uint16_t>(length);
      r.created = now;
      r.injected = now;
      r.completed = now + 1;
      out_.push_back(r);
      return r.id;
    }
   private:
    std::vector<PacketRecord>& out_;
    PacketId& next_;
  } oracle(pending, next);

  Cycle t = 0;
  const Cycle limit = 400000;
  while (!w.finished() && t < limit) {
    w.begin_cycle(t, oracle);
    std::vector<PacketRecord> due;
    due.swap(pending);
    for (const auto& r : due) w.on_packet_delivered(r, t, oracle);
    ++t;
  }
  EXPECT_TRUE(w.finished());
  EXPECT_EQ(w.transactions_completed(), w.transactions_total());
  EXPECT_EQ(w.transactions_total(),
            static_cast<std::uint64_t>(cfg.transactions) * 64u);
}

TEST(TraceIo, RoundTrip) {
  std::vector<TraceEntry> in = {
      {5, 1, 2, 5}, {3, 0, 63, 1}, {5, 2, 3, 5}, {9, 10, 20, 2}};
  std::ostringstream os;
  write_trace(os, in);
  std::istringstream is(os.str());
  const auto out = read_trace(is, 64);
  ASSERT_EQ(out.size(), 4u);
  // Sorted by cycle, stable within the same cycle.
  EXPECT_EQ(out[0], (TraceEntry{3, 0, 63, 1}));
  EXPECT_EQ(out[1], (TraceEntry{5, 1, 2, 5}));
  EXPECT_EQ(out[2], (TraceEntry{5, 2, 3, 5}));
  EXPECT_EQ(out[3], (TraceEntry{9, 10, 20, 2}));
}

TEST(TraceIo, IgnoresCommentsAndBlankLines) {
  std::istringstream is("# header\n\n1 2 3 4\n # trailing\n2 3 4 1 # note\n");
  const auto out = read_trace(is, 64);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], (TraceEntry{1, 2, 3, 4}));
}

TEST(TraceIo, RejectsMalformedLines) {
  std::istringstream is("1 2\n");
  EXPECT_THROW(read_trace(is, 64), std::runtime_error);
  std::istringstream bad_len("1 2 3 0\n");
  EXPECT_THROW(read_trace(bad_len, 64), std::runtime_error);
}

TEST(TraceIo, WorkloadReplaysAtScheduledCycles) {
  TraceWorkload w({{2, 0, 1, 1}, {2, 1, 2, 3}, {7, 3, 4, 1}});
  CapturingInjector sink;
  for (Cycle t = 0; t < 10; ++t) w.begin_cycle(t, sink);
  ASSERT_EQ(sink.entries.size(), 3u);
  EXPECT_EQ(sink.entries[0].when, 2u);
  EXPECT_EQ(sink.entries[1].when, 2u);
  EXPECT_EQ(sink.entries[2].when, 7u);
  EXPECT_TRUE(w.finished());
}

TEST(TraceIo, WorkloadSkipsSelfPackets) {
  TraceWorkload w({{1, 5, 5, 1}, {2, 1, 2, 1}});
  CapturingInjector sink;
  for (Cycle t = 0; t < 5; ++t) w.begin_cycle(t, sink);
  ASSERT_EQ(sink.entries.size(), 1u);
  EXPECT_EQ(sink.entries[0].src, 1u);
}

}  // namespace
}  // namespace dxbar
