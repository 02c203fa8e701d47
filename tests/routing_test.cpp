// Unit and property tests for routing/: DOR, West-First turn model,
// deflection ranking, quadrant route lookup.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>

#include "routing/deflect.hpp"
#include "routing/dor.hpp"
#include "routing/route_cache.hpp"
#include "routing/routing_algorithm.hpp"
#include "routing/west_first.hpp"

namespace dxbar {
namespace {

TEST(Dor, ResolvesXBeforeY) {
  const Mesh m(8, 8);
  EXPECT_EQ(dor_route(m, m.node(2, 2), m.node(5, 6)), Direction::East);
  EXPECT_EQ(dor_route(m, m.node(5, 2), m.node(5, 6)), Direction::North);
  EXPECT_EQ(dor_route(m, m.node(5, 6), m.node(2, 2)), Direction::West);
  EXPECT_EQ(dor_route(m, m.node(2, 6), m.node(2, 2)), Direction::South);
  EXPECT_EQ(dor_route(m, m.node(3, 3), m.node(3, 3)), Direction::Local);
}

// Property: following DOR from any source always reaches the destination
// in exactly the Manhattan distance.
TEST(Dor, AlwaysMinimalAndTerminates) {
  const Mesh m(6, 5);
  for (NodeId s = 0; s < static_cast<NodeId>(m.num_nodes()); ++s) {
    for (NodeId d = 0; d < static_cast<NodeId>(m.num_nodes()); ++d) {
      NodeId cur = s;
      int hops = 0;
      while (cur != d) {
        const Direction dir = dor_route(m, cur, d);
        ASSERT_NE(dir, Direction::Local);
        const auto next = m.neighbor(cur, dir);
        ASSERT_TRUE(next.has_value());
        cur = *next;
        ++hops;
        ASSERT_LE(hops, m.distance(s, d));
      }
      EXPECT_EQ(hops, m.distance(s, d));
    }
  }
}

TEST(WestFirst, WestIsExclusiveWhenDestinationIsWest) {
  const Mesh m(8, 8);
  const RouteSet r = wf_routes(m, m.node(5, 3), m.node(2, 6));
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0], Direction::West);
}

TEST(WestFirst, AdaptiveWhenDestinationIsEastOrAligned) {
  const Mesh m(8, 8);
  const RouteSet r = wf_routes(m, m.node(2, 2), m.node(5, 6));
  ASSERT_EQ(r.size(), 2u);
  EXPECT_TRUE(r.contains(Direction::East));
  EXPECT_TRUE(r.contains(Direction::North));

  const RouteSet straight = wf_routes(m, m.node(2, 2), m.node(5, 2));
  ASSERT_EQ(straight.size(), 1u);
  EXPECT_EQ(straight[0], Direction::East);
}

TEST(WestFirst, LocalWhenArrived) {
  const Mesh m(4, 4);
  const RouteSet r = wf_routes(m, m.node(1, 1), m.node(1, 1));
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0], Direction::Local);
}

TEST(WestFirst, TurnLegality) {
  // Forbidden: entering West after travelling North or South.
  EXPECT_FALSE(wf_turn_legal(Direction::North, Direction::West));
  EXPECT_FALSE(wf_turn_legal(Direction::South, Direction::West));
  EXPECT_TRUE(wf_turn_legal(Direction::West, Direction::West));
  EXPECT_TRUE(wf_turn_legal(Direction::East, Direction::West));  // U-turnish
  EXPECT_TRUE(wf_turn_legal(Direction::North, Direction::East));
  EXPECT_TRUE(wf_turn_legal(Direction::South, Direction::North));
}

// Property: every route WF produces is minimal AND never makes a
// forbidden turn across two consecutive hops, for every (src, dst) pair
// and every adaptive choice.
TEST(WestFirst, NoIllegalTurnReachableProperty) {
  const Mesh m(5, 5);
  for (NodeId s = 0; s < static_cast<NodeId>(m.num_nodes()); ++s) {
    for (NodeId d = 0; d < static_cast<NodeId>(m.num_nodes()); ++d) {
      if (s == d) continue;
      // BFS over (position, last direction) states reachable via WF.
      struct State {
        NodeId at;
        Direction came;
      };
      std::vector<State> stack{{s, Direction::Local}};
      int guard = 0;
      while (!stack.empty() && ++guard < 1000) {
        const State st = stack.back();
        stack.pop_back();
        if (st.at == d) continue;
        const RouteSet routes = wf_routes(m, st.at, d);
        ASSERT_FALSE(routes.empty());
        for (Direction dir : routes) {
          ASSERT_NE(dir, Direction::Local);
          if (st.came != Direction::Local) {
            ASSERT_TRUE(wf_turn_legal(st.came, dir))
                << "illegal turn " << to_string(st.came) << "->"
                << to_string(dir);
          }
          const auto next = m.neighbor(st.at, dir);
          ASSERT_TRUE(next.has_value());
          ASSERT_LT(m.distance(*next, d), m.distance(st.at, d));
          stack.push_back({*next, dir});
        }
      }
    }
  }
}

TEST(Deflect, ProductivePortsRankFirst) {
  const Mesh m(8, 8);
  const NodeId cur = m.node(2, 2);
  const NodeId dst = m.node(5, 5);
  const auto ranking = deflection_ranking(m, m.coord(cur), m.coord(dst), 0);
  // First two must be the productive East/North in some order.
  EXPECT_TRUE((ranking[0] == Direction::East && ranking[1] == Direction::North) ||
              (ranking[0] == Direction::North && ranking[1] == Direction::East));
}

TEST(Deflect, MissingEdgeLinksRankLast) {
  const Mesh m(4, 4);
  const NodeId corner = m.node(0, 0);
  const auto ranking = deflection_ranking(m, m.coord(corner), {3, 3}, 0);
  // West and South do not exist at the corner and must rank behind the
  // two existing links.
  EXPECT_TRUE(ranking[2] == Direction::West || ranking[2] == Direction::South);
  EXPECT_TRUE(ranking[3] == Direction::West || ranking[3] == Direction::South);
}

TEST(Deflect, RankingIsAPermutation) {
  const Mesh m(8, 8);
  for (std::uint64_t salt = 0; salt < 16; ++salt) {
    const auto r = deflection_ranking(m, {3, 3}, {1, 6}, salt);
    std::array<bool, kNumLinkDirs> seen{};
    for (Direction d : r) seen[port_index(d)] = true;
    for (bool b : seen) EXPECT_TRUE(b);
  }
}

/// The std::sort formulation deflection_ranking replaced, kept verbatim
/// as the reference its compare-exchange network must reproduce,
/// including the order of tied scores.
std::array<Direction, kNumLinkDirs> reference_ranking(const Mesh& mesh,
                                                      NodeId cur, NodeId dst,
                                                      std::uint64_t salt) {
  const int dx = mesh.offset_x(cur, dst);
  const int dy = mesh.offset_y(cur, dst);
  const Coord here = mesh.coord(cur);
  struct Ranked {
    Direction dir;
    int score;
  };
  std::array<Ranked, kNumLinkDirs> ranked{};
  int i = 0;
  for (Direction dir : kLinkDirs) {
    int score = 0;
    if (!mesh.has_link(here, dir)) {
      score = -1000;
    } else {
      int progress = 0;
      switch (dir) {
        case Direction::East: progress = dx; break;
        case Direction::West: progress = -dx; break;
        case Direction::North: progress = dy; break;
        case Direction::South: progress = -dy; break;
        case Direction::Local: break;
      }
      if (progress > 0) {
        score = 100 + progress;
      } else if (progress < 0) {
        score = -10;
      }
      score = score * 4 + static_cast<int>((salt >> (port_index(dir) * 2)) & 3);
    }
    ranked[i++] = {dir, score};
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const Ranked& a, const Ranked& b) { return a.score > b.score; });
  std::array<Direction, kNumLinkDirs> out{};
  for (int k = 0; k < kNumLinkDirs; ++k) out[k] = ranked[k].dir;
  return out;
}

/// Every (cur, dst, salt) of an 8x8 mesh and torus: the salt is read
/// 2 bits per link direction, so 0..255 covers every tie-break.
TEST(DeflectEquivalence, SortingNetworkMatchesStdSortExhaustively) {
  for (bool torus : {false, true}) {
    const Mesh m(8, 8, torus);
    const auto n = static_cast<NodeId>(m.num_nodes());
    int mismatches = 0;
    for (NodeId cur = 0; cur < n; ++cur) {
      for (NodeId dst = 0; dst < n; ++dst) {
        for (std::uint64_t salt = 0; salt < 256; ++salt) {
          if (deflection_ranking(m, m.coord(cur), m.coord(dst), salt) !=
              reference_ranking(m, cur, dst, salt)) {
            ++mismatches;
          }
        }
      }
    }
    EXPECT_EQ(mismatches, 0) << (torus ? "torus" : "mesh");
  }
}

// ---- division-free forms against their node-id originals ----------------

/// Mesh's wrap-aware axis offset as it was computed with a modulo, kept
/// so the references below share no code with AxisRing.
int legacy_axis_offset(int delta, int k, bool wrap) {
  if (!wrap) return delta;
  int d = delta % k;
  if (d < 0) d += k;
  return d <= k / 2 ? d : d - k;
}

int legacy_offset_x(const Mesh& m, NodeId from, NodeId to) {
  return legacy_axis_offset(m.coord(to).x - m.coord(from).x, m.width(),
                            m.wraps());
}

int legacy_offset_y(const Mesh& m, NodeId from, NodeId to) {
  return legacy_axis_offset(m.coord(to).y - m.coord(from).y, m.height(),
                            m.wraps());
}

/// Every (cur, dst) pair, or a strided sample of them, on one topology.
struct PairSample {
  Mesh mesh;
  NodeId cur_stride = 1;
  NodeId dst_stride = 1;

  template <typename F>
  void for_each(F&& f) const {
    const auto n = static_cast<NodeId>(mesh.num_nodes());
    for (NodeId cur = 0; cur < n; cur += cur_stride) {
      for (NodeId dst = 0; dst < n; dst += dst_stride) f(cur, dst);
    }
  }
};

std::string describe(const Mesh& m) {
  return std::to_string(m.width()) + "x" + std::to_string(m.height()) +
         (m.wraps() ? " torus" : " mesh");
}

/// The coordinate forms against their node-id originals for every
/// (cur, dst, salt 0..255): a non-square mesh, tori with even, odd and
/// two-router sides, and strided samples above 1024 nodes.  Offsets
/// are checked against the modulo formula, so reference_ranking, which
/// reads them from Mesh, is an independent reference.
TEST(DeflectEquivalence, CoordinateFormsMatchTheNodeIdOriginals) {
  const PairSample samples[] = {
      {Mesh(5, 8)},
      {Mesh(6, 4, true)},
      {Mesh(5, 7, true)},
      {Mesh(2, 3, true)},
      {Mesh(40, 30), 31, 37},
      {Mesh(40, 30, true), 31, 37},
      {Mesh(64, 64, true), 61, 67},
  };
  for (const PairSample& s : samples) {
    const Mesh& m = s.mesh;
    int offset_mismatches = 0;
    int rank_mismatches = 0;
    s.for_each([&](NodeId cur, NodeId dst) {
      const Coord here = m.coord(cur);
      const Coord there = m.coord(dst);
      if (m.offset_x(here, there) != legacy_offset_x(m, cur, dst) ||
          m.offset_y(here, there) != legacy_offset_y(m, cur, dst)) {
        ++offset_mismatches;
      }
      for (std::uint64_t salt = 0; salt < 256; ++salt) {
        if (deflection_ranking(m, here, there, salt) !=
            reference_ranking(m, cur, dst, salt)) {
          ++rank_mismatches;
        }
      }
    });
    EXPECT_EQ(offset_mismatches, 0) << describe(m);
    EXPECT_EQ(rank_mismatches, 0) << describe(m);
  }
}

// ---- quadrant route lookup ----------------------------------------------

constexpr std::array<RoutingAlgo, 4> kAllAlgos = {
    RoutingAlgo::DOR, RoutingAlgo::WestFirst, RoutingAlgo::NegativeFirst,
    RoutingAlgo::NorthLast};

/// Compares the RouteCache lookup, as a router makes it (from its cached
/// key), with compute_routes / minimal_routes element for element under
/// every algorithm; reports the first mismatch.
void expect_lookup_matches(const PairSample& s) {
  const Mesh& m = s.mesh;
  for (RoutingAlgo algo : kAllAlgos) {
    const RouteCache cache(algo, m);
    int mismatches = 0;
    s.for_each([&](NodeId cur, NodeId dst) {
      const RouteSet& got = cache.routes(cache.key(cur), dst);
      const RouteSet& got_min = cache.minimal(cache.key(cur), dst);
      const RouteSet want = compute_routes(algo, m, cur, dst);
      const RouteSet want_min = minimal_routes(m, cur, dst);
      if (!std::equal(got.begin(), got.end(), want.begin(), want.end()) ||
          !std::equal(got_min.begin(), got_min.end(), want_min.begin(),
                      want_min.end())) {
        if (mismatches++ == 0) {
          ADD_FAILURE() << describe(m) << " " << to_string(algo) << ": cur "
                        << cur << " dst " << dst << " disagrees";
        }
      }
    });
    EXPECT_EQ(mismatches, 0) << describe(m) << " " << to_string(algo);
  }
}

TEST(RouteLookupEquivalence, QuadrantTablesMatchComputeRoutesExhaustively) {
  for (bool torus : {false, true}) {
    for (const auto& [w, h] : {std::pair{2, 2}, std::pair{2, 7},
                               std::pair{3, 3}, std::pair{5, 8},
                               std::pair{8, 8}, std::pair{16, 16}}) {
      expect_lookup_matches({Mesh(w, h, torus)});
    }
  }
  // Even tori, where an exact half-ring offset is a tie that counts as
  // positive.
  expect_lookup_matches({Mesh(4, 4, true)});
  expect_lookup_matches({Mesh(6, 4, true)});
}

/// Above the 1024 nodes where the old N^2 tables stopped being built,
/// and on a side (40) that is not a power of two.
TEST(RouteLookupEquivalence, StridedSampleAboveTheOldTableGate) {
  for (bool torus : {false, true}) {
    expect_lookup_matches({Mesh(64, 64, torus), 13, 11});
    expect_lookup_matches({Mesh(40, 30, torus), 7, 3});
  }
}

TEST(RoutingAlgorithm, DispatchesPerAlgo) {
  const Mesh m(8, 8);
  const RouteSet dor = compute_routes(RoutingAlgo::DOR, m, m.node(2, 2),
                                      m.node(5, 6));
  ASSERT_EQ(dor.size(), 1u);
  EXPECT_EQ(dor[0], Direction::East);

  const RouteSet wf = compute_routes(RoutingAlgo::WestFirst, m, m.node(2, 2),
                                     m.node(5, 6));
  EXPECT_EQ(wf.size(), 2u);
}

// Property sweep: for every pair, DOR's port is always contained in some
// minimal direction set and WF contains DOR's x-first choice when the
// destination is not to the west.
TEST(RoutingAlgorithm, DorConsistentWithWf) {
  const Mesh m(6, 6);
  for (NodeId s = 0; s < static_cast<NodeId>(m.num_nodes()); ++s) {
    for (NodeId d = 0; d < static_cast<NodeId>(m.num_nodes()); ++d) {
      if (s == d) continue;
      const Direction xy = dor_route(m, s, d);
      const RouteSet wf = wf_routes(m, s, d);
      if (m.coord(d).x != m.coord(s).x) {
        // X not resolved: DOR goes east/west; WF must offer the same.
        EXPECT_TRUE(wf.contains(xy));
      }
    }
  }
}

}  // namespace
}  // namespace dxbar
