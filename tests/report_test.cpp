// src/report/ — JSON reader round-trips, curve analysis, shape diffing,
// rendering, and the dxbar_report CLI surface.
//
// The load-bearing guarantee: `dxbar_bench --json` output parses back
// bit-exactly (execute -> result_doc -> to_json -> from_json -> to_json
// is byte-stable) for EVERY registered experiment, so nothing the bench
// writes can drift away from what the report subsystem reads.
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "common/json.hpp"
#include "exp/registry.hpp"
#include "exp/runner.hpp"
#include "report/analysis.hpp"
#include "report/diff.hpp"
#include "report/render.hpp"
#include "report/report_main.hpp"
#include "report/result_io.hpp"

#ifndef DXBAR_TEST_DATA_DIR
#define DXBAR_TEST_DATA_DIR "."
#endif

namespace dxbar::report {
namespace {

namespace fs = std::filesystem;
using exp::Experiment;
using exp::ExperimentResult;
using exp::Registry;
using exp::RunOptions;

std::string scratch_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("report_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

// ---------------------------------------------------------------------
// JsonValue parser (common/json.hpp)

TEST(JsonParse, ScalarsAndStructure) {
  JsonValue v;
  ASSERT_EQ(json_parse(R"({"a": [1, 2.5, "x"], "b": true, "c": null})", v),
            "");
  ASSERT_TRUE(v.is_object());
  const JsonValue* a = v.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->items.size(), 3u);
  EXPECT_EQ(a->items[0].as_int64(), 1);
  EXPECT_DOUBLE_EQ(a->items[1].as_double(), 2.5);
  EXPECT_EQ(a->items[2].scalar, "x");
  EXPECT_TRUE(v.find("b")->boolean);
  EXPECT_TRUE(v.find("c")->is_null());
}

TEST(JsonParse, SeventeenDigitDoublesAreBitExact) {
  // %.17g is what the writer emits; strtod must recover the exact bits.
  for (double want :
       {0.1, 1.0 / 3.0, 0.29999999999999999, 6.0221407599999999e23,
        5e-324 /* min denormal */, 1.7976931348623157e308 /* max */}) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "[%.17g]", want);
    JsonValue v;
    ASSERT_EQ(json_parse(buf, v), "") << buf;
    const double got = v.items[0].as_double();
    EXPECT_EQ(std::memcmp(&got, &want, sizeof(double)), 0) << buf;
  }
}

TEST(JsonParse, StringEscapes) {
  JsonValue v;
  ASSERT_EQ(json_parse(R"(["a\"b\\c\n\tAé"])", v), "");
  EXPECT_EQ(v.items[0].scalar, "a\"b\\c\n\tA\xc3\xa9");
}

TEST(JsonParse, ErrorsCarryLineAndColumn) {
  JsonValue v;
  const std::string err = json_parse("{\n  \"a\": [1,\n 2,]\n}", v);
  ASSERT_FALSE(err.empty());
  EXPECT_NE(err.find("line 3"), std::string::npos) << err;
}

TEST(JsonParse, RejectsDuplicateKeysAndTrailingContent) {
  JsonValue v;
  EXPECT_NE(json_parse(R"({"a": 1, "a": 2})", v), "");
  EXPECT_NE(json_parse(R"({"a": 1} trailing)", v), "");
  EXPECT_NE(json_parse("", v), "");
}

TEST(JsonParse, DepthLimitIsEnforcedNotCrashed) {
  std::string deep(200, '[');
  deep += std::string(200, ']');
  JsonValue v;
  const std::string err = json_parse(deep, v);
  ASSERT_FALSE(err.empty());
  EXPECT_NE(err.find("too deep"), std::string::npos) << err;
}

// ---------------------------------------------------------------------
// Writer -> reader round trip, for every registered experiment

RunOptions tiny_options() {
  RunOptions opt;
  opt.quick = true;
  opt.base.mesh_width = 4;
  opt.base.mesh_height = 4;
  opt.base.warmup_cycles = 60;
  opt.base.measure_cycles = 120;
  opt.base.drain_cycles = 300;
  opt.overrides = {"seed=7"};
  return opt;
}

TEST(ReportRoundTrip, EveryRegisteredExperimentIsByteStable) {
  for (const Experiment* e : Registry::instance().all()) {
    const RunOptions opt = tiny_options();
    const ExperimentResult result = exp::execute(*e, opt);
    const ResultDoc doc = exp::result_doc(*e, result, opt);
    const std::string first = to_json(doc);

    ResultDoc parsed;
    ASSERT_EQ(from_json(first, parsed), "") << e->name;
    EXPECT_EQ(parsed.experiment, e->name);
    EXPECT_EQ(to_json(parsed), first)
        << e->name << ": reader lost information the writer emitted";
  }
}

TEST(ReportRoundTrip, NonFiniteValuesSurviveAsNull) {
  ResultDoc doc;
  doc.experiment = "nan_check";
  doc.executor = "custom";
  TableDoc t;
  t.title = "t";
  t.x_label = "x";
  t.x = {"1", "2"};
  t.series.push_back({"s", {std::nan(""), 2.0}});
  doc.tables.push_back(t);

  const std::string text = to_json(doc);
  EXPECT_NE(text.find("null"), std::string::npos);
  ResultDoc parsed;
  ASSERT_EQ(from_json(text, parsed), "");
  EXPECT_TRUE(std::isnan(parsed.tables[0].series[0].values[0]));
  EXPECT_EQ(to_json(parsed), text);  // null re-serializes as null
}

// ---------------------------------------------------------------------
// Strict-reader rejection: every failure mode is a loud, located error

std::string minimal_doc_text() {
  ResultDoc doc;
  doc.experiment = "mini";
  doc.title = "minimal";
  doc.git_describe = "test";
  doc.executor = "custom";
  return to_json(doc);
}

TEST(ReportReader, RejectsMalformedJsonWithLocation) {
  ResultDoc out;
  const std::string err = from_json("{\"schema\": ", out, "bad.json");
  ASSERT_FALSE(err.empty());
  EXPECT_EQ(err.find("bad.json: "), 0u) << err;
  EXPECT_NE(err.find("line "), std::string::npos) << err;
}

TEST(ReportReader, RejectsTruncatedDocument) {
  const std::string text = minimal_doc_text();
  ResultDoc out;
  EXPECT_NE(from_json(text.substr(0, text.size() / 2), out), "");
}

TEST(ReportReader, RejectsMissingFieldNamingIt) {
  std::string text = minimal_doc_text();
  const auto pos = text.find("  \"executor\"");
  ASSERT_NE(pos, std::string::npos);
  text.erase(pos, text.find('\n', pos) - pos + 1);
  ResultDoc out;
  const std::string err = from_json(text, out);
  EXPECT_NE(err.find("missing key 'executor'"), std::string::npos) << err;
}

TEST(ReportReader, RejectsUnknownKeyNamingIt) {
  std::string text = minimal_doc_text();
  const auto pos = text.find("\"notes\"");
  ASSERT_NE(pos, std::string::npos);
  text.insert(pos, "\"surprise\": 1,\n  ");
  ResultDoc out;
  const std::string err = from_json(text, out);
  EXPECT_NE(err.find("unknown key 'surprise'"), std::string::npos) << err;
}

TEST(ReportReader, RejectsWrongSchemaAndVersion) {
  std::string text = minimal_doc_text();
  ResultDoc out;

  std::string wrong = text;
  wrong.replace(wrong.find("dxbar-experiment-result"),
                std::string("dxbar-experiment-result").size(), "other");
  EXPECT_NE(from_json(wrong, out).find("$.schema"), std::string::npos);

  // A future version and the previous one are both rejected, naming
  // the file's version.
  for (const char* version : {"99", "1"}) {
    wrong = text;
    wrong.replace(wrong.find("\"schema_version\": 2"),
                  std::string("\"schema_version\": 2").size(),
                  std::string("\"schema_version\": ") + version);
    const std::string err = from_json(wrong, out);
    EXPECT_NE(err.find("file has " + std::string(version)), std::string::npos)
        << err;
  }
}

TEST(ReportReader, RejectsUnknownEnumValues) {
  std::string text = minimal_doc_text();
  text.replace(text.find("\"design\": \"DXbar\""),
               std::string("\"design\": \"DXbar\"").size(),
               "\"design\": \"Warp\"");
  ResultDoc out;
  const std::string err = from_json(text, out);
  EXPECT_NE(err.find("unknown design 'Warp'"), std::string::npos) << err;
}

TEST(ReportReader, RejectsIntegersThatDoNotFitTheirField) {
  // A document with one point, so RunStats integers are read too.
  ResultDoc doc;
  doc.experiment = "mini";
  doc.executor = "custom";
  PointDoc p;
  p.stats.packets_completed = 7;
  p.stats.cycles = 500;
  p.stats.packet_length = 6;  // the config's is 5
  doc.points.push_back(p);
  const std::string text = to_json(doc);
  ResultDoc intact;
  ASSERT_EQ(from_json(text, intact), "");
  for (const auto& [from, to] :
       {std::pair<std::string, std::string>{"\"width\": 8,", "\"width\": 8.5,"},
        {"\"width\": 8,", "\"width\": 4294967298,"},
        {"\"seed\": 1\n", "\"seed\": -1\n"},
        {"\"cycles\": 500,", "\"cycles\": 1.5,"},
        {"\"packets_completed\": 7,", "\"packets_completed\": -1,"},
        {"\"flits_ejected\": 0,", "\"flits_ejected\": 18446744073709551616,"},
        {"\"packet_length\": 6,", "\"packet_length\": 4294967302,"},
        {"\"schema_version\": 2,", "\"schema_version\": 1.5,"},
        {"\"warm_groups\": 0,", "\"warm_groups\": -1,"}}) {
    std::string bad = text;
    const auto pos = bad.find(from);
    ASSERT_NE(pos, std::string::npos) << from;
    bad.replace(pos, from.size(), to);
    ResultDoc out;
    const std::string err = from_json(bad, out);
    EXPECT_NE(err.find("bad value"), std::string::npos) << to << ": " << err;
  }
}

TEST(ReportReader, RejectsSeriesLengthMismatch) {
  ResultDoc doc;
  doc.experiment = "mini";
  doc.executor = "custom";
  TableDoc t;
  t.title = "t";
  t.x_label = "x";
  t.x = {"1", "2"};
  t.series.push_back({"s", {1.0, 2.0}});
  doc.tables.push_back(t);
  std::string text = to_json(doc);
  // Drop one value from the series.
  const auto pos = text.find("            1,\n");
  ASSERT_NE(pos, std::string::npos);
  text.erase(pos, std::string("            1,\n").size());
  ResultDoc out;
  const std::string err = from_json(text, out);
  EXPECT_NE(err.find("1 values for 2 x entries"), std::string::npos) << err;
}

TEST(ReportReader, DirLoadKeepsGoodFilesAndReportsBadOnes) {
  const std::string dir = scratch_dir("mixed");
  std::ofstream(dir + "/good.json") << minimal_doc_text();
  std::ofstream(dir + "/bad.json") << "{ nope";
  std::ofstream(dir + "/ignored.txt") << "not json";
  std::vector<ResultDoc> docs;
  const std::string err = load_result_dir(dir, docs);
  ASSERT_EQ(docs.size(), 1u);
  EXPECT_EQ(docs[0].experiment, "mini");
  EXPECT_NE(err.find("bad.json"), std::string::npos) << err;
}

// ---------------------------------------------------------------------
// Golden v2 fixture: the on-disk schema is pinned by a checked-in file.
// Regenerate deliberately with: DXBAR_REGEN_GOLDEN=1 ./dxbar_tests

ResultDoc golden_doc() {
  ResultDoc doc;
  doc.experiment = "golden";
  doc.title = "golden fixture";
  doc.git_describe = "v2-fixture";
  doc.quick = true;
  doc.executor = "warm_sweep";
  doc.warm_groups = 1;
  doc.overrides = {"seed=7"};
  TableDoc t;
  t.title = "accepted vs offered";
  t.x_label = "offered";
  t.x = {"0.1", "0.2"};
  t.series.push_back({"DXbar", {0.1, 0.2}});
  t.series.push_back({"Flit-Bless", {0.1, std::nan("")}});
  doc.tables.push_back(t);
  doc.notes = "two-point fixture\n";
  PointDoc p;
  p.config.offered_load = 0.1;
  p.stats.offered_load = 0.1;
  p.stats.accepted_load = 0.099999999999999992;
  p.stats.drained = true;
  doc.points.push_back(p);
  return doc;
}

TEST(ReportGolden, CheckedInV2FixtureStaysReadableAndByteExact) {
  const std::string path =
      std::string(DXBAR_TEST_DATA_DIR) + "/golden_result_v2.json";
  const std::string want = to_json(golden_doc());
  if (std::getenv("DXBAR_REGEN_GOLDEN") != nullptr) {
    std::ofstream(path) << want;
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in) << path << " missing; run with DXBAR_REGEN_GOLDEN=1";
  std::ostringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), want)
      << "golden fixture drifted; if the schema changed on purpose, bump "
         "kSchemaVersion and regenerate with DXBAR_REGEN_GOLDEN=1";

  ResultDoc parsed;
  ASSERT_EQ(from_json(buf.str(), parsed, path), "");
  EXPECT_EQ(parsed.experiment, "golden");
  EXPECT_EQ(parsed.points.size(), 1u);
  EXPECT_EQ(parsed.points[0].stats.accepted_load, 0.099999999999999992);
}

// ---------------------------------------------------------------------
// Analysis: direction, winners, saturation, knee

TableDoc accepted_table(std::vector<double> a, std::vector<double> b) {
  TableDoc t;
  t.title = "accepted load vs offered load";
  t.x_label = "offered";
  for (std::size_t i = 0; i < a.size(); ++i) {
    t.x.push_back(exp::fmt(0.1 * static_cast<double>(i + 1), "%.1f"));
  }
  t.series.push_back({"A", std::move(a)});
  t.series.push_back({"B", std::move(b)});
  return t;
}

TEST(ReportAnalysis, SaturationMatchesTheBenchCriterion) {
  // Same 90%-of-offered rule the fig5 reducer prints.
  EXPECT_DOUBLE_EQ(
      saturation_from_points({0.1, 0.2, 0.3, 0.4}, {0.1, 0.2, 0.25, 0.25}),
      0.3);
  // Never dips below 90% -> saturation is the last bin.
  EXPECT_DOUBLE_EQ(saturation_from_points({0.1, 0.2}, {0.1, 0.2}), 0.2);
}

TEST(ReportAnalysis, WinnersRequireDecisiveMarginOverRunnerUp) {
  const TableDoc t =
      accepted_table({0.10, 0.20, 0.35}, {0.10, 0.201, 0.30});
  const TableAnalysis a = analyze_table(t);
  ASSERT_EQ(a.winner_per_bin.size(), 3u);
  EXPECT_EQ(a.winner_per_bin[0], -1);  // exactly equal -> tie
  EXPECT_EQ(a.winner_per_bin[1], -1);  // 0.5% apart -> inside tie margin
  EXPECT_EQ(a.winner_per_bin[2], 0);   // 16% apart -> decisive
  EXPECT_EQ(a.direction, MetricDirection::HigherBetter);
  EXPECT_TRUE(a.is_accepted_vs_offered);
}

TEST(ReportAnalysis, LatencyTablesAreLowerBetter) {
  TableDoc t;
  t.title = "average latency vs offered load";
  t.x_label = "offered";
  t.x = {"0.1"};
  t.series.push_back({"A", {10.0}});
  t.series.push_back({"B", {20.0}});
  const TableAnalysis a = analyze_table(t);
  EXPECT_EQ(a.direction, MetricDirection::LowerBetter);
  EXPECT_EQ(a.winner_per_bin[0], 0);
  EXPECT_FALSE(a.is_accepted_vs_offered);
}

TEST(ReportAnalysis, KneeFindsTheSaturationCorner) {
  const TableDoc t = accepted_table({0.1, 0.2, 0.3, 0.31, 0.32},
                                    {0.1, 0.2, 0.3, 0.4, 0.5});
  const TableAnalysis a = analyze_table(t);
  EXPECT_NEAR(a.series[0].knee_x, 0.3, 1e-9);   // bends at 0.3
  EXPECT_TRUE(std::isnan(a.series[1].knee_x));  // straight line: no knee
}

// ---------------------------------------------------------------------
// Diff classification

ResultDoc one_table_doc(TableDoc t, const std::string& name = "exp1") {
  ResultDoc doc;
  doc.experiment = name;
  doc.title = name;
  doc.git_describe = "base";
  doc.executor = "warm_sweep";
  doc.tables.push_back(std::move(t));
  return doc;
}

TEST(ReportDiff, IdenticalIgnoresGitDescribe) {
  ResultDoc a = one_table_doc(accepted_table({0.1}, {0.1}));
  ResultDoc b = a;
  b.git_describe = "fresh";
  const DiffReport r = diff_results({a}, {b});
  ASSERT_EQ(r.experiments.size(), 1u);
  EXPECT_EQ(r.experiments[0].cls, DiffClass::Identical);
  EXPECT_FALSE(r.has_shape_regression());
}

TEST(ReportDiff, SmallValueChangesAreDriftNotRegression) {
  const ResultDoc a =
      one_table_doc(accepted_table({0.10, 0.20, 0.35}, {0.10, 0.20, 0.30}));
  const ResultDoc b = one_table_doc(
      accepted_table({0.101, 0.20, 0.352}, {0.10, 0.199, 0.301}));
  const DiffReport r = diff_results({a}, {b});
  ASSERT_EQ(r.experiments.size(), 1u);
  EXPECT_EQ(r.experiments[0].cls, DiffClass::NumericDrift);
  EXPECT_GT(r.experiments[0].tables[0].max_rel_delta, 0.0);
}

TEST(ReportDiff, DecisiveWinnerFlipIsAShapeRegression) {
  const ResultDoc a = one_table_doc(
      accepted_table({0.1, 0.2, 0.35, 0.36}, {0.1, 0.2, 0.30, 0.30}));
  const ResultDoc b = one_table_doc(
      accepted_table({0.1, 0.2, 0.30, 0.30}, {0.1, 0.2, 0.35, 0.36}));
  const DiffReport r = diff_results({a}, {b});
  ASSERT_EQ(r.experiments.size(), 1u);
  ASSERT_EQ(r.experiments[0].cls, DiffClass::ShapeRegression);
  bool flip_reason = false;
  for (const std::string& reason : r.experiments[0].tables[0].reasons) {
    if (reason.find("flipped") != std::string::npos) flip_reason = true;
  }
  EXPECT_TRUE(flip_reason);
  EXPECT_TRUE(r.has_shape_regression());
}

TEST(ReportDiff, SaturationShiftBeyondToleranceIsAShapeRegression) {
  // Base saturates at 0.3; fresh holds to 0.5 — a two-bin shift (the
  // default tolerance is 1.5 bins).
  const ResultDoc a = one_table_doc(accepted_table(
      {0.1, 0.2, 0.25, 0.25, 0.25}, {0.1, 0.2, 0.25, 0.25, 0.25}));
  const ResultDoc b = one_table_doc(accepted_table(
      {0.1, 0.2, 0.30, 0.40, 0.50}, {0.1, 0.2, 0.25, 0.25, 0.25}));
  const DiffReport r = diff_results({a}, {b});
  ASSERT_EQ(r.experiments[0].cls, DiffClass::ShapeRegression);
  bool sat_reason = false;
  for (const std::string& reason : r.experiments[0].tables[0].reasons) {
    if (reason.find("saturation") != std::string::npos) sat_reason = true;
  }
  EXPECT_TRUE(sat_reason);
}

TEST(ReportDiff, StructuralChangeIsAShapeRegression) {
  const ResultDoc a = one_table_doc(accepted_table({0.1, 0.2}, {0.1, 0.2}));
  const ResultDoc b =
      one_table_doc(accepted_table({0.1, 0.2, 0.3}, {0.1, 0.2, 0.3}));
  EXPECT_EQ(diff_results({a}, {b}).experiments[0].cls,
            DiffClass::ShapeRegression);
}

/// Adds "<label> ±ci95" companion columns holding `rel` times each
/// base cell (a uniform relative halfwidth), as --seeds N emits them.
TableDoc with_ci_columns(TableDoc t, double rel) {
  const std::size_t n = t.series.size();
  for (std::size_t s = 0; s < n; ++s) {
    SeriesDoc ci;
    ci.label = t.series[s].label + std::string(kCiSuffix);
    for (double v : t.series[s].values) ci.values.push_back(rel * v);
    t.series.push_back(std::move(ci));
  }
  return t;
}

TEST(ReportAnalysis, CiCompanionColumnsCarryNoShapeSemantics) {
  EXPECT_TRUE(is_ci_series("A ±ci95"));
  EXPECT_FALSE(is_ci_series("A"));
  EXPECT_FALSE(is_ci_series("±ci95 of A"));

  const TableDoc t = with_ci_columns(
      accepted_table({0.1, 0.2, 0.25, 0.25}, {0.1, 0.2, 0.30, 0.35}),
      0.02);
  const TableAnalysis a = analyze_table(t);
  ASSERT_EQ(a.series.size(), 4u);
  // The CI columns never win a bin (their tiny values would "win" a
  // lower-better metric otherwise) and have no saturation or knee.
  for (int w : a.winner_per_bin) EXPECT_LT(w, 2);
  EXPECT_TRUE(std::isnan(a.series[2].saturation));
  EXPECT_TRUE(std::isnan(a.series[3].knee_x));
  EXPECT_FALSE(std::isnan(a.series[0].saturation));
}

TEST(ReportDiff, ReplicaNoiseWidensTheDriftTolerance) {
  // The same decisive winner flip as above: a shape regression when the
  // tables carry no noise information...
  const TableDoc base =
      accepted_table({0.1, 0.2, 0.35, 0.36}, {0.1, 0.2, 0.30, 0.30});
  const TableDoc flipped =
      accepted_table({0.1, 0.2, 0.30, 0.30}, {0.1, 0.2, 0.35, 0.36});
  ASSERT_EQ(diff_results({one_table_doc(base)}, {one_table_doc(flipped)})
                .experiments[0]
                .cls,
            DiffClass::ShapeRegression);

  // ...but drift when ±ci95 columns show the flip is inside two
  // relative confidence halfwidths (9% noise -> 18% margin > the 17%
  // gap between 0.35 and 0.30).
  const DiffReport noisy =
      diff_results({one_table_doc(with_ci_columns(base, 0.09))},
                   {one_table_doc(with_ci_columns(flipped, 0.09))});
  EXPECT_EQ(noisy.experiments[0].cls, DiffClass::NumericDrift);
}

TEST(ReportDiff, CiColumnsAreExcludedFromMaxRelDelta) {
  const TableDoc a = with_ci_columns(accepted_table({0.2}, {0.2}), 0.01);
  TableDoc b = with_ci_columns(accepted_table({0.202}, {0.2}), 0.01);
  b.series[2].values[0] = 0.1;  // wild CI change must not dominate
  const TableDiff d = diff_tables(a, b);
  EXPECT_EQ(d.cls, DiffClass::NumericDrift);
  EXPECT_LT(d.max_rel_delta, 0.05);
}

TEST(ReportDiff, AddedAndRemovedExperimentsAreClassified) {
  const ResultDoc a = one_table_doc(accepted_table({0.1}, {0.1}), "old_exp");
  const ResultDoc b = one_table_doc(accepted_table({0.1}, {0.1}), "new_exp");
  const DiffReport r = diff_results({a}, {b});
  EXPECT_EQ(r.count(DiffClass::Removed), 1u);
  EXPECT_EQ(r.count(DiffClass::Added), 1u);
  EXPECT_FALSE(r.has_shape_regression());
}

// ---------------------------------------------------------------------
// Rendering

TEST(ReportRender, ReportContainsSvgTableAndShapeMetrics) {
  const ResultDoc doc = one_table_doc(
      accepted_table({0.1, 0.2, 0.25, 0.25}, {0.1, 0.2, 0.30, 0.35}));
  const std::string md = render_report({doc}, "unit");
  EXPECT_NE(md.find("<svg"), std::string::npos);
  EXPECT_NE(md.find("| offered |"), std::string::npos);
  EXPECT_NE(md.find("Saturation"), std::string::npos);
  EXPECT_NE(md.find("## exp1"), std::string::npos);
}

TEST(ReportRender, RenderIsDeterministic) {
  const ResultDoc doc = one_table_doc(accepted_table({0.1}, {0.2}));
  EXPECT_EQ(render_report({doc}, "unit"), render_report({doc}, "unit"));
}

TEST(ReportRender, DiffReportOverlaysRegressedTables) {
  const ResultDoc a = one_table_doc(
      accepted_table({0.1, 0.2, 0.35, 0.36}, {0.1, 0.2, 0.30, 0.30}));
  const ResultDoc b = one_table_doc(
      accepted_table({0.1, 0.2, 0.30, 0.30}, {0.1, 0.2, 0.35, 0.36}));
  const DiffReport r = diff_results({a}, {b});
  const std::string md = render_diff(r, {a}, {b}, "base", "fresh");
  EXPECT_NE(md.find("SHAPE-REGRESSION"), std::string::npos);
  EXPECT_NE(md.find("<svg"), std::string::npos);
  EXPECT_NE(md.find("stroke-dasharray"), std::string::npos);  // base overlay
}

// ---------------------------------------------------------------------
// CLI surface: exit codes are the CI contract

int run_cli(std::vector<const char*> argv) {
  return report_main(
      std::span<const char* const>(argv.data(), argv.size()));
}

TEST(ReportCli, RenderThenSelfDiffExitsZero) {
  const std::string dir = scratch_dir("cli");
  std::ofstream(dir + "/mini.json") << minimal_doc_text();
  EXPECT_EQ(run_cli({"render", dir.c_str()}), 0);
  EXPECT_TRUE(fs::exists(fs::path(dir) / "report.md"));
  EXPECT_EQ(run_cli({"diff", dir.c_str(), dir.c_str()}), 0);
}

TEST(ReportCli, ShapeRegressionExitsOne) {
  const std::string base = scratch_dir("cli_base");
  const std::string fresh = scratch_dir("cli_fresh");
  const ResultDoc a = one_table_doc(
      accepted_table({0.1, 0.2, 0.35, 0.36}, {0.1, 0.2, 0.30, 0.30}));
  const ResultDoc b = one_table_doc(
      accepted_table({0.1, 0.2, 0.30, 0.30}, {0.1, 0.2, 0.35, 0.36}));
  std::ofstream(base + "/exp1.json") << to_json(a);
  std::ofstream(fresh + "/exp1.json") << to_json(b);
  const std::string out = scratch_dir("cli_out") + "/diff.md";
  EXPECT_EQ(run_cli({"diff", base.c_str(), fresh.c_str(), "-o",
                     out.c_str()}),
            1);
  EXPECT_TRUE(fs::exists(out));
}

TEST(ReportCli, UsageAndIoErrorsExitTwo) {
  EXPECT_EQ(run_cli({}), 2);
  EXPECT_EQ(run_cli({"frobnicate"}), 2);
  EXPECT_EQ(run_cli({"render"}), 2);
  EXPECT_EQ(run_cli({"render", "/no/such/dir"}), 2);
  EXPECT_EQ(run_cli({"diff", "/no/such/dir", "/no/such/dir"}), 2);
  EXPECT_EQ(run_cli({"diff", "a", "b", "--tie-margin", "bogus"}), 2);
  const std::string empty = scratch_dir("cli_empty");
  EXPECT_EQ(run_cli({"render", empty.c_str()}), 2);  // no documents
  EXPECT_EQ(run_cli({"--help"}), 0);
}

}  // namespace
}  // namespace dxbar::report
