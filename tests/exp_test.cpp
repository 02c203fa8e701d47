// Experiment-harness tests: registry contents and ordering, the
// dxbar_bench argument parser (notably the override-vs---quick ordering
// contract the legacy bench_util parser violated), grid axes and views,
// executor equivalence (plain sweep vs --resume results log,
// thread-count invariance), the preflight estimate, JSON output
// well-formedness, CSV emission behavior and the --seeds fold.
#include <gtest/gtest.h>

#include <bit>
#include <cctype>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/dxbar.hpp"
#include "exp/registry.hpp"
#include "exp/runner.hpp"
#include "report/analysis.hpp"
#include "snapshot/snapshot.hpp"

namespace dxbar::exp {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------
// Registry

// Keep in sync with DXBAR_EXPERIMENT_NAMES in bench/CMakeLists.txt (the
// ctest smoke-run list); this test is the drift guard between the two.
const std::vector<std::string> kExpectedExperiments = {
    "ablation_buffer_depth",
    "ablation_energy_breakdown",
    "ablation_energy_scaling",
    "ablation_extensions",
    "ablation_fairness_threshold",
    "ablation_link_faults",
    "ablation_mesh_scaling",
    "ablation_routing",
    "ablation_stall_escape",
    "ablation_topology",
    "ablation_unified_vs_dual",
    "closedloop_fault_tail",
    "closedloop_hotspot",
    "closedloop_saturation",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "table1",
    "table2",
    "table3",
    "table_router_zoo",
    "table_saturation",
};

TEST(ExpRegistry, AllExperimentsRegisteredInNaturalOrder) {
  std::vector<std::string> names;
  for (const Experiment* e : Registry::instance().all()) {
    names.push_back(e->name);
  }
  EXPECT_EQ(names, kExpectedExperiments);
}

TEST(ExpRegistry, EveryExperimentIsRunnableAndDocumented) {
  for (const Experiment* e : Registry::instance().all()) {
    EXPECT_FALSE(e->title.empty()) << e->name;
    const bool has_axes = static_cast<bool>(e->axes);
    const bool has_run = static_cast<bool>(e->run);
    EXPECT_NE(has_axes, has_run) << e->name;
    EXPECT_EQ(static_cast<bool>(e->reduce), has_axes) << e->name;
    EXPECT_EQ(static_cast<bool>(e->grid), has_axes) << e->name;
  }
}

TEST(ExpRegistry, FindIsExactAndMissesReturnNull) {
  EXPECT_NE(Registry::instance().find("fig5"), nullptr);
  EXPECT_EQ(Registry::instance().find("fig"), nullptr);
  EXPECT_EQ(Registry::instance().find("fig55"), nullptr);
}

TEST(ExpRegistry, NaturalLessComparesDigitRunsNumerically) {
  EXPECT_TRUE(natural_less("fig5", "fig10"));
  EXPECT_FALSE(natural_less("fig10", "fig5"));
  EXPECT_TRUE(natural_less("fig9", "fig12"));
  EXPECT_TRUE(natural_less("table1", "table3"));
  EXPECT_TRUE(natural_less("ablation_a", "fig1"));
  EXPECT_FALSE(natural_less("fig5", "fig5"));
  EXPECT_TRUE(natural_less("a2b", "a10b"));
}

// ---------------------------------------------------------------------
// Argument parsing and config construction

BenchArgs parse(std::vector<const char*> argv) {
  return parse_bench_args(std::span<const char* const>(argv.data(),
                                                       argv.size()));
}

TEST(ExpParser, ClassifiesFlagsExperimentsAndOverrides) {
  const BenchArgs a = parse({"fig5", "--quick", "seed=7", "fig10",
                             "--threads", "3", "--csv", "c", "--json", "j",
                             "--resume", "r"});
  EXPECT_TRUE(a.error.empty()) << a.error;
  EXPECT_TRUE(a.quick);
  EXPECT_EQ(a.threads, 3u);
  EXPECT_EQ(a.csv_dir, "c");
  EXPECT_EQ(a.json_dir, "j");
  EXPECT_EQ(a.resume_dir, "r");
  EXPECT_EQ(a.experiments, (std::vector<std::string>{"fig5", "fig10"}));
  EXPECT_EQ(a.overrides, (std::vector<std::string>{"seed=7"}));
}

TEST(ExpParser, UnknownOptionIsAnError) {
  EXPECT_FALSE(parse({"--frobnicate"}).error.empty());
  EXPECT_FALSE(parse({"--threads"}).error.empty());  // missing value
}

TEST(ExpParser, OverridesWinOverQuickRegardlessOfOrder) {
  // The legacy bench_util parser applied --quick after the override
  // loop, silently clobbering explicit warmup/measure settings.  The
  // contract now: overrides are applied last, in both argument orders.
  for (const auto& argv :
       {std::vector<const char*>{"fig5", "warmup=5000", "--quick"},
        std::vector<const char*>{"fig5", "--quick", "warmup=5000"}}) {
    const BenchArgs a = parse(argv);
    ASSERT_TRUE(a.error.empty()) << a.error;
    SimConfig cfg;
    ASSERT_EQ(make_base_config(a, cfg), "");
    EXPECT_EQ(cfg.warmup_cycles, 5000u);
    EXPECT_EQ(cfg.measure_cycles, 1200u);  // --quick still sets the rest
    EXPECT_EQ(cfg.drain_cycles, 2000u);
  }
}

TEST(ExpParser, PhaseWindowDefaultsAndQuick) {
  SimConfig cfg;
  ASSERT_EQ(make_base_config(parse({"fig5"}), cfg), "");
  EXPECT_EQ(cfg.warmup_cycles, 1000u);
  EXPECT_EQ(cfg.measure_cycles, 4000u);
  EXPECT_EQ(cfg.drain_cycles, 6000u);

  SimConfig quick;
  ASSERT_EQ(make_base_config(parse({"fig5", "--quick"}), quick), "");
  EXPECT_EQ(quick.warmup_cycles, 300u);
  EXPECT_EQ(quick.measure_cycles, 1200u);
  EXPECT_EQ(quick.drain_cycles, 2000u);
}

TEST(ExpParser, BadOverrideIsReportedNotIgnored) {
  SimConfig cfg;
  EXPECT_NE(make_base_config(parse({"fig5", "no_such_knob=1"}), cfg), "");
}

TEST(ExpParser, FilterFlagIsParsed) {
  const BenchArgs a = parse({"--filter", "fig*", "--quick"});
  EXPECT_TRUE(a.error.empty()) << a.error;
  EXPECT_EQ(a.filter, "fig*");
  EXPECT_FALSE(parse({"--filter"}).error.empty());  // missing value
}

std::vector<std::string> selected_names(const BenchArgs& a,
                                        std::string* err_out = nullptr) {
  std::vector<const Experiment*> sel;
  const std::string err = select_experiments(a, sel);
  if (err_out != nullptr) *err_out = err;
  std::vector<std::string> names;
  for (const Experiment* e : sel) names.push_back(e->name);
  return names;
}

TEST(ExpFilter, GlobSelectsMatchingExperimentsInRegistryOrder) {
  const auto names = selected_names(parse({"--filter", "fig1?"}));
  EXPECT_EQ(names, (std::vector<std::string>{"fig10", "fig11", "fig12"}));

  const auto tables = selected_names(parse({"--filter", "table*"}));
  EXPECT_EQ(tables, (std::vector<std::string>{"table1", "table2", "table3",
                                              "table_router_zoo",
                                              "table_saturation"}));
}

TEST(ExpFilter, ComposesWithAllAndPositionalsWithoutDuplicates) {
  // --all already selects everything; adding a filter or names that
  // overlap must not run an experiment twice.
  const auto all = selected_names(parse({"--all", "--filter", "fig*",
                                         "fig5"}));
  EXPECT_EQ(all, kExpectedExperiments);

  const auto mix = selected_names(parse({"--filter", "fig5", "fig5",
                                         "table1"}));
  EXPECT_EQ(mix, (std::vector<std::string>{"fig5", "table1"}));
}

TEST(ExpFilter, UnmatchedGlobIsAnErrorListingRegisteredNames) {
  std::string err;
  const auto names = selected_names(parse({"--filter", "zzz*"}), &err);
  EXPECT_TRUE(names.empty());
  ASSERT_FALSE(err.empty());
  EXPECT_NE(err.find("zzz*"), std::string::npos) << err;
  EXPECT_NE(err.find("fig5"), std::string::npos)
      << "error should list registered names: " << err;
}

TEST(ExpFilter, UnknownPositionalIsStillAnError) {
  std::string err;
  selected_names(parse({"no_such_exp"}), &err);
  EXPECT_NE(err.find("no_such_exp"), std::string::npos) << err;
}

// ---------------------------------------------------------------------
// Grid axes and views

TEST(ExpGrid, ProductIsOuterMajorAndViewsFindPointsByPosition) {
  const auto ints = [](std::string name, std::vector<int> v,
                       int SimConfig::*field) {
    return make_axis(
        std::move(name), v, [](int x) { return std::to_string(x); },
        [field](SimConfig& c, int x) { c.*field = x; });
  };
  const Grid grid{SimConfig{},
                  {ints("a", {1, 2}, &SimConfig::mesh_width),
                   ints("b", {3, 4, 5}, &SimConfig::mesh_height),
                   ints("c", {6, 7}, &SimConfig::buffer_depth)}};
  const std::vector<SimConfig> cfgs = grid.configs();
  ASSERT_EQ(cfgs.size(), 12u);
  std::vector<RunStats> stats(cfgs.size());
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    // The innermost axis varies fastest.
    EXPECT_EQ(cfgs[i].mesh_width, 1 + static_cast<int>(i / 6)) << i;
    EXPECT_EQ(cfgs[i].mesh_height, 3 + static_cast<int>(i / 2 % 3)) << i;
    EXPECT_EQ(cfgs[i].buffer_depth, 6 + static_cast<int>(i % 2)) << i;
    stats[i].cycles = i;
  }

  const GridView g(grid, stats);
  EXPECT_EQ(g.at(1, 2, 0).cycles, 10u);
  EXPECT_EQ(g.index({0, 1, 1}), 3u);
  const GridView b4 = g.fix("b", g.axis("b").position("4"));
  EXPECT_EQ(b4.at(1, 1).cycles, 9u);
  const GridView col = b4.fix("a", 0);
  EXPECT_EQ(col.points(), (std::vector<std::size_t>{2, 3}));
  EXPECT_EQ(col.column(&RunStats::cycles), (std::vector<double>{2, 3}));

  const Table t = grid_table("t", b4, "c", "a", &RunStats::cycles, "%4.0f");
  EXPECT_EQ(t.x_label, "c");
  EXPECT_EQ(t.x, (std::vector<std::string>{"6", "7"}));
  EXPECT_EQ(t.series_labels, (std::vector<std::string>{"1", "2"}));
  EXPECT_EQ(t.values, (std::vector<std::vector<double>>{{2, 3}, {8, 9}}));
  EXPECT_TRUE(t.quantiles.empty());
  const Table q = grid_table("q", b4, "c", "a", req_quantile(0.5));
  ASSERT_EQ(q.quantiles.size(), 2u);
  EXPECT_EQ(q.quantiles[1].series, 1u);
  EXPECT_EQ(q.quantiles[1].q, 0.5);
  EXPECT_EQ(q.quantiles[1].points, (std::vector<std::size_t>{8, 9}));
}

// ---------------------------------------------------------------------
// Execution: warm sweep, --resume results log, thread invariance

std::vector<std::uint8_t> stats_bytes(const std::vector<RunStats>& stats) {
  SnapshotWriter w;
  for (const RunStats& s : stats) save_run_stats(w, s);
  return w.take();
}

Experiment tiny_experiment() {
  Experiment e;
  e.name = "exp_test_tiny";
  e.title = "harness test grid";
  e.axes = [](const RunContext& ctx) {
    return Grid{
        ctx.base,
        {make_axis(
             "design",
             std::vector<RouterDesign>{RouterDesign::DXbar,
                                       RouterDesign::FlitBless},
             [](RouterDesign d) { return std::string(to_string(d)); },
             [](SimConfig& c, RouterDesign d) { c.design = d; }),
         make_axis(
             "offered", std::vector<double>{0.10, 0.25},
             [](double l) { return fmt(l, "%.2f"); },
             [](SimConfig& c, double l) { c.offered_load = l; })}};
  };
  e.reduce = [](const RunContext&, const GridView& g) {
    ExperimentResult r;
    r.addf("points: %zu\n", g.stats().size());
    return r;
  };
  return e;
}

RunOptions tiny_options() {
  RunOptions opt;
  opt.base.mesh_width = 4;
  opt.base.mesh_height = 4;
  opt.base.warmup_cycles = 150;
  opt.base.measure_cycles = 200;
  opt.base.drain_cycles = 400;
  return opt;
}

std::string scratch_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("exp_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

TEST(ExpExecute, ResultsAreThreadCountInvariant) {
  const Experiment e = tiny_experiment();
  RunOptions one = tiny_options();
  one.threads = 1;
  RunOptions many = tiny_options();
  many.threads = 4;
  const ExperimentResult ra = execute(e, one);
  const ExperimentResult rb = execute(e, many);
  ASSERT_EQ(ra.grid_stats.size(), 4u);
  EXPECT_EQ(ra.executor, "warm_sweep");
  EXPECT_EQ(stats_bytes(ra.grid_stats), stats_bytes(rb.grid_stats));
}

TEST(ExpExecute, CampaignExecutorIsBitIdenticalToWarmSweep) {
  const Experiment e = tiny_experiment();
  const ExperimentResult direct = execute(e, tiny_options());

  RunOptions resumed = tiny_options();
  resumed.resume_dir = scratch_dir("campaign");
  const ExperimentResult first = execute(e, resumed);
  EXPECT_EQ(first.executor, "campaign");
  EXPECT_EQ(stats_bytes(direct.grid_stats), stats_bytes(first.grid_stats));

  // Second run serves every point from the results log and must
  // reproduce the same bytes.
  const ExperimentResult second = execute(e, resumed);
  EXPECT_EQ(stats_bytes(direct.grid_stats), stats_bytes(second.grid_stats));
}

TEST(ExpPreflight, FiniteWorkloadPointsAddNoCycleEstimate) {
  // fig9's SPLASH points run to completion far short of their cycle
  // cap, so they add no cycles; fig5's 63 quick points cost one warmup
  // plus one measurement window each (63 x (300 + 1200)).
  BenchArgs args;
  args.quick = true;
  RunOptions opt;
  opt.quick = true;
  ASSERT_EQ(make_base_config(args, opt.base), "");
  const Experiment* fig9 = Registry::instance().find("fig9");
  const Experiment* fig5 = Registry::instance().find("fig5");
  ASSERT_NE(fig9, nullptr);
  ASSERT_NE(fig5, nullptr);

  ::testing::internal::CaptureStderr();
  print_preflight({fig9, fig5}, opt);
  const std::string err = ::testing::internal::GetCapturedStderr();
  const auto line_of = [&](const std::string& needle) {
    const std::size_t at = err.find(needle);
    if (at == std::string::npos) return std::string();
    const std::size_t begin = err.rfind('\n', at) + 1;
    return err.substr(begin, err.find('\n', at) - begin);
  };
  const std::string fig9_line = line_of(" fig9 ");
  EXPECT_NE(fig9_line.find(" 0 cycles, 63 finite-workload point(s) not "
                           "estimated"),
            std::string::npos)
      << err;
  const std::string fig5_line = line_of(" fig5 ");
  EXPECT_NE(fig5_line.find(" 94500 cycles"), std::string::npos) << err;
  EXPECT_EQ(fig5_line.find("finite"), std::string::npos) << err;
  EXPECT_NE(line_of("preflight total").find(
                " 94500 cycles, 63 finite-workload point(s) not estimated"),
            std::string::npos)
      << err;
}

TEST(ExpExecute, WarmupPinningActivatesGrouping) {
  const Experiment e = tiny_experiment();
  RunOptions opt = tiny_options();
  const ExperimentResult cold = execute(e, opt);
  EXPECT_EQ(cold.warm_groups, 0u);  // warmup_load unset: cold fallback

  RunOptions warm = tiny_options();
  warm.base.warmup_load = 0.10;
  const ExperimentResult grouped = execute(e, warm);
  // Two designs x one pinned warmup: one snapshot group per design.
  EXPECT_EQ(grouped.warm_groups, 2u);
  ASSERT_EQ(grouped.grid_stats.size(), 4u);
}

// ---------------------------------------------------------------------
// JSON output

// Minimal recursive-descent JSON well-formedness checker (no deps).
struct JsonCursor {
  const std::string& s;
  std::size_t i = 0;

  void ws() {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) {
      ++i;
    }
  }
  bool eat(char c) {
    ws();
    if (i < s.size() && s[i] == c) {
      ++i;
      return true;
    }
    return false;
  }
  bool value();
  bool string() {
    ws();
    if (i >= s.size() || s[i] != '"') return false;
    ++i;
    while (i < s.size() && s[i] != '"') {
      if (s[i] == '\\') ++i;
      ++i;
    }
    return eat('"');
  }
  bool number_or_word() {
    ws();
    const std::size_t start = i;
    while (i < s.size() &&
           (std::isalnum(static_cast<unsigned char>(s[i])) || s[i] == '+' ||
            s[i] == '-' || s[i] == '.')) {
      ++i;
    }
    return i > start;
  }
};

bool JsonCursor::value() {
  ws();
  if (i >= s.size()) return false;
  if (s[i] == '{') {
    ++i;
    if (eat('}')) return true;
    do {
      if (!string() || !eat(':') || !value()) return false;
    } while (eat(','));
    return eat('}');
  }
  if (s[i] == '[') {
    ++i;
    if (eat(']')) return true;
    do {
      if (!value()) return false;
    } while (eat(','));
    return eat(']');
  }
  if (s[i] == '"') return string();
  return number_or_word();
}

std::string slurp(const fs::path& p) {
  std::ifstream in(p);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(ExpJson, OutputIsWellFormedAndSchemaStamped) {
  const Experiment* fig5 = Registry::instance().find("fig5");
  ASSERT_NE(fig5, nullptr);

  RunOptions opt = tiny_options();
  opt.quick = true;
  opt.json_dir = scratch_dir("json");
  opt.overrides = {"seed=7"};
  opt.base.measure_cycles = 100;  // keep the 63-point grid cheap
  opt.base.warmup_cycles = 50;
  opt.base.drain_cycles = 150;
  const ExperimentResult result = execute(*fig5, opt);
  ASSERT_TRUE(write_json_result(*fig5, result, opt));

  const std::string doc = slurp(fs::path(opt.json_dir) / "fig5.json");
  ASSERT_FALSE(doc.empty());

  JsonCursor c{doc};
  EXPECT_TRUE(c.value() && (c.ws(), c.i == doc.size()))
      << "malformed JSON at offset " << c.i;

  for (const char* needle :
       {"\"schema\": \"dxbar-experiment-result\"", "\"schema_version\": 2",
        "\"experiment\": \"fig5\"", "\"git_describe\"",
        "\"overrides\"", "\"seed=7\"", "\"base_config\"", "\"tables\"",
        "\"x_label\"", "\"series\"", "\"points\"", "\"executor\"",
        "\"offered_load\"", "\"accepted_load\""}) {
    EXPECT_NE(doc.find(needle), std::string::npos) << needle;
  }
}

TEST(ExpJson, IoFailureIsReportedNotSilent) {
  const Experiment e = tiny_experiment();
  RunOptions opt = tiny_options();
  // A path under an existing *file* cannot be created as a directory.
  const std::string file = scratch_dir("jsonfail") + "/blocker";
  std::ofstream(file) << "x";
  opt.json_dir = file + "/sub";
  const ExperimentResult result = execute(e, opt);
  EXPECT_FALSE(write_json_result(e, result, opt));
}

// ---------------------------------------------------------------------
// CSV output

ExperimentResult two_same_titled_tables() {
  ExperimentResult r;
  Table t;
  t.title = "same title";
  t.x_label = "x";
  t.x = {"1", "2"};
  t.series_labels = {"s"};
  t.values = {{1.0, 2.0}};
  r.add_table(t);
  r.add_table(t);
  return r;
}

TEST(ExpCsv, CreatesDirAndDisambiguatesEqualSlugs) {
  Experiment e;
  e.name = "exp_test_csv";
  const std::string dir = scratch_dir("csv") + "/nested/deeper";
  std::vector<std::string> used;
  ASSERT_TRUE(write_csv_tables(e, two_same_titled_tables(), dir, used));
  EXPECT_TRUE(fs::exists(fs::path(dir) / "exp_test_csv_same_title.csv"));
  EXPECT_TRUE(fs::exists(fs::path(dir) / "exp_test_csv_same_title_2.csv"));

  // A second experiment session sharing `used` can never overwrite.
  ASSERT_TRUE(write_csv_tables(e, two_same_titled_tables(), dir, used));
  EXPECT_TRUE(fs::exists(fs::path(dir) / "exp_test_csv_same_title_3.csv"));
  EXPECT_TRUE(fs::exists(fs::path(dir) / "exp_test_csv_same_title_4.csv"));
}

TEST(ExpCsv, UnwritableDirReportsFailure) {
  Experiment e;
  e.name = "exp_test_csv";
  const std::string file = scratch_dir("csvfail") + "/blocker";
  std::ofstream(file) << "x";
  std::vector<std::string> used;
  EXPECT_FALSE(
      write_csv_tables(e, two_same_titled_tables(), file + "/sub", used));
}

// ---------------------------------------------------------------------
// Warm-sweep grouping report (the runner's executor telemetry)

TEST(ExpWarmReport, GroupsShareWarmupAndColdPointsAreCounted) {
  std::vector<SimConfig> cfgs;
  for (RouterDesign d : {RouterDesign::DXbar, RouterDesign::FlitBless}) {
    for (double load : {0.10, 0.25}) {
      SimConfig c;
      c.mesh_width = 4;
      c.mesh_height = 4;
      c.warmup_cycles = 100;
      c.measure_cycles = 150;
      c.design = d;
      c.offered_load = load;
      c.warmup_load = 0.10;
      cfgs.push_back(c);
    }
  }
  SimConfig cold = cfgs.front();
  cold.warmup_load = -1.0;  // unset: must fall back to a cold run
  cfgs.push_back(cold);

  SweepReport report;
  const auto stats = run_sweep(cfgs, 0, nullptr, &report);
  ASSERT_EQ(stats.size(), cfgs.size());
  EXPECT_EQ(report.groups.size(), 2u);
  EXPECT_EQ(report.warm_points(), 4u);
  EXPECT_EQ(report.cold_points, 1u);

  // Bit-exact vs cold runs, per the warm-sweep contract.
  std::vector<RunStats> cold_stats;
  for (const SimConfig& c : cfgs) cold_stats.push_back(run_open_loop(c));
  EXPECT_EQ(stats_bytes(stats), stats_bytes(cold_stats));
}

// ---------------------------------------------------------------------
// --seeds N replication

TEST(ExpParser, SeedsFlagIsParsedAndValidated) {
  const BenchArgs ok = parse({"--seeds", "5"});
  EXPECT_TRUE(ok.error.empty()) << ok.error;
  EXPECT_EQ(ok.seeds, 5);
  EXPECT_EQ(parse({}).seeds, 1);  // default: single replica

  EXPECT_NE(parse({"--seeds", "0"}).error.find("--seeds"),
            std::string::npos);
  EXPECT_FALSE(parse({"--seeds", "many"}).error.empty());
  EXPECT_FALSE(parse({"--seeds", "-2"}).error.empty());
  EXPECT_FALSE(parse({"--seeds"}).error.empty());  // missing value
}

/// A grid experiment whose reducer emits a real table (one series over
/// the two offered loads), so replication has columns to widen.
Experiment table_experiment() {
  Experiment e;
  e.name = "exp_test_table";
  e.title = "ci table grid";
  e.axes = [](const RunContext& ctx) {
    Grid g{ctx.base,
           {make_axis(
               "offered", std::vector<double>{0.10, 0.25},
               [](double l) { return fmt(l, "%.2f"); },
               [](SimConfig& c, double l) { c.offered_load = l; })}};
    g.base.design = RouterDesign::DXbar;
    return g;
  };
  e.reduce = [](const RunContext&, const GridView& g) {
    ExperimentResult r;
    Table t;
    t.title = "accepted load";
    t.x_label = "offered";
    t.x = g.axis("offered").labels();
    add_series(t, "acc", g, &RunStats::accepted_load);
    r.add_table(std::move(t));
    r.addf("rows: %zu\n", g.stats().size());
    return r;
  };
  return e;
}

TEST(ExpExecute, SeedsExpandTheGridRepMajorWithDerivedSeeds) {
  const Experiment e = table_experiment();
  RunOptions opt = tiny_options();
  opt.seeds = 3;
  const ExperimentResult r = execute(e, opt);

  ASSERT_EQ(r.grid.size(), 6u);  // 2 points x 3 replicas, all raw points
  ASSERT_EQ(r.grid_stats.size(), 6u);
  // Replica 0 is the untouched base grid; later replicas carry derived
  // nonzero measurement seeds, distinct across replicas of one point.
  EXPECT_EQ(r.grid[0].measure_seed, 0u);
  EXPECT_EQ(r.grid[1].measure_seed, 0u);
  for (std::size_t i = 2; i < 6; ++i) {
    EXPECT_NE(r.grid[i].measure_seed, 0u) << i;
  }
  EXPECT_EQ(r.grid[2].offered_load, r.grid[0].offered_load);
  EXPECT_NE(r.grid[2].measure_seed, r.grid[4].measure_seed);
  // The three replicas of each point share one warmup group.
  EXPECT_EQ(r.warm_groups, 2u);
}

TEST(ExpExecute, SeedsAddMeanAndCiColumnsDeterministically) {
  const Experiment e = table_experiment();
  RunOptions opt = tiny_options();
  opt.seeds = 3;
  const ExperimentResult r = execute(e, opt);

  const Table* table = nullptr;
  for (const Block& b : r.blocks) {
    if (b.kind == Block::Kind::Table) table = &b.table;
  }
  ASSERT_NE(table, nullptr);
  ASSERT_EQ(table->series_labels.size(), 2u);
  EXPECT_EQ(table->series_labels[0], "acc");
  EXPECT_EQ(table->series_labels[1],
            "acc" + std::string(report::kCiSuffix));

  // Cell = mean of the three replicas of that point (rep-major slices).
  for (std::size_t row = 0; row < 2; ++row) {
    const double mean = (r.grid_stats[row].accepted_load +
                         r.grid_stats[row + 2].accepted_load +
                         r.grid_stats[row + 4].accepted_load) /
                        3.0;
    EXPECT_DOUBLE_EQ(table->values[0][row], mean);
    EXPECT_GE(table->values[1][row], 0.0);  // ci95 halfwidth
  }

  // Replication is deterministic end to end.
  const ExperimentResult again = execute(e, opt);
  EXPECT_EQ(stats_bytes(r.grid_stats), stats_bytes(again.grid_stats));
}


/// FNV-1a over one table: its title, row and series labels, and the
/// IEEE-754 bits of every cell.
std::uint64_t table_fnv(const Table& t) {
  std::vector<std::uint8_t> bytes;
  const auto text = [&](const std::string& s) {
    bytes.insert(bytes.end(), s.begin(), s.end());
    bytes.push_back(0);
  };
  text(t.title);
  for (const std::string& x : t.x) text(x);
  for (const std::string& l : t.series_labels) text(l);
  for (const std::vector<double>& col : t.values) {
    for (const double v : col) {
      const auto bits = std::bit_cast<std::uint64_t>(v);
      for (int i = 0; i < 8; ++i) {
        bytes.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
      }
    }
  }
  return fnv1a(bytes.data(), bytes.size());
}

// The two experiments whose p99 request-latency cells pool the replicas'
// histograms under --seeds N: every table cell, bit for bit, over two
// replicas on a small closed-loop grid (the CI smoke runs execute these
// cells, but only this test checks their values).
TEST(ExpPinned, PooledQuantileExperimentsReplicateBitIdentically) {
  struct Golden {
    const char* experiment;
    std::vector<std::uint64_t> tables;
  };
  for (const Golden& g :
       {Golden{"closedloop_saturation",
               {14777235198237399962ULL, 14868128872677173862ULL,
                3450482615219284405ULL}},
        Golden{"table_router_zoo", {2008086053496024112ULL}}}) {
    const Experiment* e = Registry::instance().find(g.experiment);
    ASSERT_NE(e, nullptr) << g.experiment;
    RunOptions opt = tiny_options();
    opt.quick = true;
    opt.seeds = 2;
    const ExperimentResult r = execute(*e, opt);
    std::vector<std::uint64_t> got;
    for (const Block& b : r.blocks) {
      if (b.kind == Block::Kind::Table) got.push_back(table_fnv(b.table));
    }
    EXPECT_EQ(got, g.tables) << g.experiment;
  }
}

}  // namespace
}  // namespace dxbar::exp
