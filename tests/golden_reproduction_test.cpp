// Golden pins for the zero-allocation kernel rewrite.
//
// The rows below were recorded by running the PRE-optimization simulation
// kernel (the seed revision, before the flit arena / route cache / flat
// channel-array / devirtualized-dispatch rewrite) with the stock
// SimConfig (8x8 mesh, DOR, uniform-random, packet length 5, warmup
// 1000, measure 8000, drain cap 50000, seed 1) at three offered loads
// per design.  The rewrite is required to be behaviour-preserving, so
// every value must still reproduce EXACTLY — doubles included, which is
// why the comparisons are == and not near: the optimized kernel executes
// the same arithmetic in the same order, only faster.
//
// If an intentional behaviour change ever invalidates these, re-record
// them (see EXPERIMENTS.md, "Perf harness") in the same commit that
// changes the behaviour, and say why in that commit's message.
//
// kLowLoadGoldens pins the seven other designs where their routers sit
// idle most of the time: 8x8 uniform random at offered 0.02 and 0.10,
// plus one closed-loop coherence row (mlp=1, read_fraction=0.7,
// service_delay=8), all on the same stock config.  They were recorded
// on the revision before the routers gained their idle-cycle early-outs
// (DESIGN.md section 5, "Router-phase kernel"), which must be exact.
#include <gtest/gtest.h>

#include "sim/sim_runner.hpp"

namespace dxbar {
namespace {

struct Golden {
  const char* name;
  RouterDesign design;
  double load;
  double accepted_load;
  double avg_packet_latency;
  double avg_network_latency;
  double deflections_per_flit;
  std::uint64_t flits_injected;
  std::uint64_t flits_ejected;
  std::uint64_t packets_completed;
  bool drained;
  /// Closed-loop rows ignore `load`.  (The flag fits in the struct's
  /// tail padding; ctest names embed the parameter's size.)
  bool closed_loop = false;
};

constexpr Golden kGoldens[] = {
    {"DXbar", RouterDesign::DXbar, 0.10, 0.099287109375000002,
     16.744444444444444, 16.134218289085545, 3.9331366764995083e-05, 50856,
     50835, 10170, true},
    {"DXbar", RouterDesign::DXbar, 0.25, 0.24885156250000001,
     25.570671378091873, 21.371574401256382, 0.00043188064389477815, 127371,
     127412, 25470, true},
    {"DXbar", RouterDesign::DXbar, 0.40, 0.36183593749999998,
     558.11590792086486, 42.757716162879063, 0.0070996053050918096, 185263,
     185260, 40791, true},
    {"FlitBless", RouterDesign::FlitBless, 0.10, 0.099283203124999997,
     16.576892822025567, 16.360176991150443, 0.24230088495575222, 50851,
     50833, 10170, true},
    {"FlitBless", RouterDesign::FlitBless, 0.25, 0.24902539062500001,
     29.674479780133492, 24.65429917550059, 1.3958146839418923, 127459,
     127501, 25470, true},
    {"FlitBless", RouterDesign::FlitBless, 0.40, 0.28357031249999998,
     2144.880316736535, 38.834988110122332, 2.4787673751562846, 145188,
     145188, 40791, true},
    {"Buffered4", RouterDesign::Buffered4, 0.10, 0.099281250000000001,
     22.456833824975419, 22.141592920353983, 0, 50853, 50832, 10170, true},
    {"Buffered4", RouterDesign::Buffered4, 0.25, 0.249337890625,
     54.96588142913231, 34.085904986258342, 0, 127663, 127661, 25470, true},
    {"Buffered4", RouterDesign::Buffered4, 0.40, 0.26865234375000002,
     2482.7858351106861, 40.612806746586259, 0, 137577, 137550, 40791, true},
};

constexpr Golden kLowLoadGoldens[] = {
    {"Buffered8", RouterDesign::Buffered8, 0.02, 0.019580078125000001,
     20.646882793017458, 20.608478802992519, 0, 10023, 10025, 2005, true},
    {"Buffered8", RouterDesign::Buffered8, 0.10, 0.099281250000000001,
     22.412979351032448, 22.129695181907572, 0, 50851, 50832, 10170, true},
    {"Buffered8", RouterDesign::Buffered8, 0, 0.1506171875,
     21.659697828939017, 20.416902958229294, 0, 77085, 77116, 23629, true,
     true},
    {"Unified", RouterDesign::UnifiedXbar, 0.02, 0.019576171874999999,
     15.10922693266833, 15.019451371571073, 0.00069825436408977551, 10021,
     10023, 2005, true},
    {"Unified", RouterDesign::UnifiedXbar, 0.10, 0.099287109375000002,
     16.719567354965584, 16.10757128810226, 0.0039921337266470014, 50856,
     50835, 10170, true},
    {"Unified", RouterDesign::UnifiedXbar, 0, 0.18219726562499999,
     17.279027461955572, 15.000804617806542, 0.0048787810553178714, 93287,
     93285, 28585, true, true},
    {"BufferedVC", RouterDesign::BufferedVC, 0.02, 0.019580078125000001,
     20.64788029925187, 20.609476309226931, 0, 10023, 10025, 2005, true},
    {"BufferedVC", RouterDesign::BufferedVC, 0.10, 0.099281250000000001,
     22.575319567354967, 22.256342182890855, 0, 50853, 50832, 10170, true},
    {"BufferedVC", RouterDesign::BufferedVC, 0, 0.11909570312499999,
     29.534853907376743, 24.796271566689814, 0, 61001, 60977, 18721, true,
     true},
    {"AFC", RouterDesign::Afc, 0.02, 0.019576171874999999,
     15.084289276807979, 15.050374064837905, 0.036009975062344136, 10025,
     10023, 2005, true},
    {"AFC", RouterDesign::Afc, 0.10, 0.099320312499999994,
     18.08456243854474, 17.724090462143561, 0.20119960668633236, 50850,
     50852, 10170, true},
    {"AFC", RouterDesign::Afc, 0, 0.14518359375000001, 22.114244300961918,
     20.439847147186718, 0.16976052337555697, 74323, 74334, 22767, true,
     true},
    {"DAMQ", RouterDesign::Damq, 0.02, 0.019580078125000001,
     20.648877805486283, 20.610473815461347, 0, 10023, 10025, 2005, true},
    {"DAMQ", RouterDesign::Damq, 0.10, 0.099281250000000001,
     22.448180924287119, 22.159095378564405, 0, 50851, 50832, 10170, true},
    {"DAMQ", RouterDesign::Damq, 0, 0.15043945312500001, 21.775650258408881,
     20.459713632127425, 0, 77044, 77025, 23606, true, true},
    {"minBD", RouterDesign::MinBD, 0.02, 0.019576171874999999,
     15.037406483790523, 15.003491271820449, 0.018254364089775561, 10025,
     10023, 2005, true},
    {"minBD", RouterDesign::MinBD, 0.10, 0.099283203124999997,
     16.27158308751229, 16.035299901671582, 0.12607669616519174, 50848,
     50833, 10170, true},
    {"minBD", RouterDesign::MinBD, 0, 0.18437890625, 16.609202157079647,
     15.365147953539823, 0.23998601220752797, 94379, 94402, 28928, true,
     true},
    {"SCARAB", RouterDesign::Scarab, 0.02, 0.019578124999999998,
     16.1571072319202, 15.10423940149626, 0, 10025, 10024, 2005, true},
    {"SCARAB", RouterDesign::Scarab, 0.10, 0.099292968750000002,
     18.413176007866273, 16.99518190757129, 0, 50852, 50838, 10170, true},
    {"SCARAB", RouterDesign::Scarab, 0, 0.15907421875, 19.741191543882127,
     17.170003203074952, 0, 81457, 81446, 24976, true, true},
};

SimConfig golden_config(const Golden& g) {
  SimConfig cfg;  // stock defaults; only the swept axes vary
  cfg.design = g.design;
  if (g.closed_loop) {
    cfg.workload = WorkloadKind::ClosedLoop;
    cfg.mlp = 1;
    cfg.read_fraction = 0.7;
    cfg.service_delay = 8;
  } else {
    cfg.offered_load = g.load;
  }
  return cfg;
}

void expect_golden(const RunStats& s, const Golden& g) {
  EXPECT_EQ(s.accepted_load, g.accepted_load);
  EXPECT_EQ(s.avg_packet_latency, g.avg_packet_latency);
  EXPECT_EQ(s.avg_network_latency, g.avg_network_latency);
  EXPECT_EQ(s.deflections_per_flit, g.deflections_per_flit);
  EXPECT_EQ(s.flits_injected, g.flits_injected);
  EXPECT_EQ(s.flits_ejected, g.flits_ejected);
  EXPECT_EQ(s.packets_completed, g.packets_completed);
  EXPECT_EQ(s.drained, g.drained);
}

std::string golden_name(const ::testing::TestParamInfo<Golden>& info) {
  if (info.param.closed_loop) return std::string(info.param.name) + "_closed";
  const int pct = static_cast<int>(info.param.load * 100 + 0.5);
  return std::string(info.param.name) + "_load" + std::to_string(pct);
}

class GoldenReproductionTest : public ::testing::TestWithParam<Golden> {};

TEST_P(GoldenReproductionTest, MatchesPreOptimizationKernelExactly) {
  const Golden& g = GetParam();
  expect_golden(run_open_loop(golden_config(g)), g);
}

INSTANTIATE_TEST_SUITE_P(Pinned, GoldenReproductionTest,
                         ::testing::ValuesIn(kGoldens), golden_name);
INSTANTIATE_TEST_SUITE_P(LowLoad, GoldenReproductionTest,
                         ::testing::ValuesIn(kLowLoadGoldens), golden_name);

// The sharded execution path must reproduce the same pre-optimization
// goldens: threading one simulation is an execution choice, not a
// behaviour change.  One load point per pinned design keeps this subset
// cheap (the low-load rows are cheap anyway); the full cross-design
// sweep lives in determinism_test.cpp.
class GoldenShardReproductionTest : public ::testing::TestWithParam<Golden> {};

TEST_P(GoldenShardReproductionTest, ShardedRunMatchesGoldensExactly) {
  const Golden& g = GetParam();
  for (int shards : {2, 4}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    SimConfig cfg = golden_config(g);
    cfg.shards = shards;
    expect_golden(run_open_loop(cfg), g);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Pinned, GoldenShardReproductionTest,
    ::testing::Values(kGoldens[1], kGoldens[4], kGoldens[7]), golden_name);
INSTANTIATE_TEST_SUITE_P(LowLoad, GoldenShardReproductionTest,
                         ::testing::ValuesIn(kLowLoadGoldens), golden_name);

}  // namespace
}  // namespace dxbar
