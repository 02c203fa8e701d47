// The SimConfig and RunStats field tables (common/config.hpp,
// common/stats.hpp): every entry must round-trip through each consumer
// built on it, and the readers (key=value overrides and result JSON)
// must survive byte mutations.
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "common/config.hpp"
#include "common/json.hpp"
#include "report/result_io.hpp"
#include "snapshot/serialize.hpp"
#include "stats_compare.hpp"

#ifndef DXBAR_TEST_DATA_DIR
#define DXBAR_TEST_DATA_DIR "."
#endif

namespace dxbar {
namespace {

/// One valid value per table entry that differs from base_for(key).
const std::map<std::string, std::string, std::less<>> kSamples = {
    {"width", "6"},
    {"height", "5"},
    {"topology", "torus"},
    {"design", "bless"},
    {"routing", "wf"},
    {"pattern", "tornado"},
    {"buffer_depth", "8"},
    {"fairness_threshold", "2"},
    {"stall_escape", "32"},
    {"num_vcs", "4"},
    {"retransmit_buffer", "8"},
    {"load", "0.45"},
    {"warmup_load", "0.2"},
    {"packet_length", "3"},
    {"flit_bits", "64"},
    {"tech", "32"},
    {"warmup", "500"},
    {"measure", "4000"},
    {"drain", "100"},
    {"faults", "0.5"},
    {"fault_detect_delay", "3"},
    {"fault_onset_spread", "10"},
    {"link_faults", "0.1"},
    {"seed", "18446744073709551615"},
    {"measure_seed", "3"},
    {"workload", "synthetic"},
    {"mlp", "2"},
    {"service_delay", "4"},
    {"request_length", "2"},
    {"hotspot_fraction", "0.5"},
    {"read_fraction", "0.5"},
    {"app", "LU"},
    {"transactions", "30"},
    {"shards", "2"},
};

/// The config a sample of `key` is applied to: closed-loop, or SPLASH
/// for the SPLASH rows, so that workload's block is in the JSON.
SimConfig base_for(std::string_view key) {
  SimConfig cfg;
  cfg.workload = key == "app" || key == "transactions"
                     ? WorkloadKind::Splash
                     : WorkloadKind::ClosedLoop;
  return cfg;
}

std::string config_json(const SimConfig& cfg) {
  JsonWriter w;
  json_config(w, cfg);
  return w.take();
}

TEST(ConfigTable, EveryFieldRoundTripsThroughOverrideJsonAndSnapshot) {
  ASSERT_EQ(kSamples.size(), config_fields().size());
  for (const ConfigField& f : config_fields()) {
    const SimConfig base = base_for(f.key);
    const auto sample = kSamples.find(f.key);
    ASSERT_NE(sample, kSamples.end()) << f.key;
    SimConfig cfg = base;
    const std::string arg = std::string(f.key) + "=" + sample->second;
    ASSERT_EQ(apply_override(cfg, arg), "") << arg;
    ASSERT_NE(cfg, base) << arg;
    ASSERT_EQ(cfg.validate(), "") << arg;

    // The value's own text is an override that sets it again.
    SimConfig again = base;
    EXPECT_EQ(apply_override(again, std::string(f.key) + "=" + f.text(cfg)),
              "")
        << arg;
    EXPECT_EQ(again, cfg) << arg;

    if (f.has(kExecutionOnly)) {
      // Never serialized: the JSON and snapshot bytes ignore it.
      EXPECT_EQ(config_json(cfg), config_json(base)) << arg;
      continue;
    }
    report::ResultDoc doc;
    doc.base_config = cfg;
    report::ResultDoc back;
    ASSERT_EQ(report::from_json(report::to_json(doc), back), "") << arg;
    EXPECT_EQ(back.base_config, cfg) << arg;
    SnapshotWriter w;
    save_config(w, back.base_config);
    SnapshotReader r(w.data());
    EXPECT_EQ(load_config(r), cfg) << arg;
  }
}

/// A reader's result is acceptable when its JSON reads back unchanged.
void expect_stable(const report::ResultDoc& doc, const std::string& what) {
  const std::string once = report::to_json(doc);
  report::ResultDoc back;
  ASSERT_EQ(report::from_json(once, back), "") << what;
  EXPECT_EQ(report::to_json(back), once) << what;
}

TEST(ConfigTable, FuzzedGoldenConfigNeverEscapesTheReader) {
  // Every single-byte mutation of the golden base_config object and of
  // its first stats object must be rejected with an error or read as a
  // document that round-trips.
  std::ifstream in(std::string(DXBAR_TEST_DATA_DIR) +
                   "/golden_result_v2.json");
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string golden = buf.str();
  for (const std::string_view open : {"\"base_config\": {", "\"stats\": {"}) {
    const std::size_t begin = golden.find(open);
    ASSERT_NE(begin, std::string::npos) << open;
    const std::size_t end = golden.find('}', begin);
    int accepted = 0;
    for (std::size_t i = begin; i <= end; ++i) {
      for (const unsigned char delta : {0x01, 0x02, 0x20, 0x80}) {
        std::string mutated = golden;
        mutated[i] = static_cast<char>(mutated[i] ^ delta);
        report::ResultDoc doc;
        if (!report::from_json(mutated, doc).empty()) continue;
        ++accepted;
        expect_stable(doc, "byte " + std::to_string(i) + " delta " +
                               std::to_string(delta));
      }
    }
    EXPECT_GT(accepted, 0) << open;  // digit flips stay readable
  }
}

TEST(ConfigTable, FuzzedOverridesNeverEscapeTheReader) {
  // The same for one key=value override per table entry.
  for (const ConfigField& f : config_fields()) {
    const SimConfig base = base_for(f.key);
    SimConfig sample = base;
    ASSERT_EQ(apply_override(sample, std::string(f.key) + "=" +
                                         kSamples.find(f.key)->second),
              "");
    const std::string arg = std::string(f.key) + "=" + f.text(sample);
    for (std::size_t i = 0; i < arg.size(); ++i) {
      for (const unsigned char delta : {0x01, 0x02, 0x20, 0x80}) {
        std::string mutated = arg;
        mutated[i] = static_cast<char>(mutated[i] ^ delta);
        report::ResultDoc doc;
        doc.base_config = base;
        if (!apply_override(doc.base_config, mutated).empty()) continue;
        expect_stable(doc, mutated);
      }
    }
  }
}

TEST(StatsTable, EveryFieldRoundTripsInTheParentsKeyOrder) {
  // Every stored field distinct and nonzero, so the conditional leakage
  // and request keys are written too.
  RunStats s;
  double next = 1.5;
  for (const StatsField& f : run_stats_fields()) {
    if (!f.stored()) continue;
    f.visit(s, [&](auto& m) { m = static_cast<decltype(+m)>(next++); });
  }
  JsonWriter w;
  json_run_stats(w, s);
  JsonValue v;
  ASSERT_EQ(json_parse(w.take(), v), "");
  std::string keys;
  for (const auto& [key, value] : v.members) keys += key + " ";
  EXPECT_EQ(keys,
            "offered_load accepted_load accepted_load_stddev "
            "avg_packet_latency avg_network_latency latency_p50 latency_p95 "
            "latency_p99 latency_max avg_hops deflections_per_flit "
            "retransmits_per_flit packets_completed flits_ejected "
            "flits_injected cycles packet_length drained energy_buffer_nj "
            "energy_crossbar_nj energy_link_nj energy_control_nj "
            "energy_leakage_nj energy_per_packet_nj requests_completed "
            "avg_req_latency req_latency_p50 req_latency_p95 req_latency_p99 "
            "req_latency_max ");

  report::ResultDoc doc;
  doc.points.push_back({SimConfig{}, s});
  report::ResultDoc back;
  ASSERT_EQ(report::from_json(report::to_json(doc), back), "");
  EXPECT_TRUE(same_stats(back.points[0].stats, s));

  s.req_hist.record(3);  // binary-only
  s.req_hist.record(900);
  const std::vector<std::uint8_t> bytes = stats_bytes(s);
  SnapshotReader r(bytes);
  EXPECT_TRUE(same_stats(load_run_stats(r), s));
}

}  // namespace
}  // namespace dxbar
