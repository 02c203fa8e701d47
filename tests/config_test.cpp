// The SimConfig field table (common/config.hpp): every entry must
// round-trip through each consumer built on it, and both config readers
// (key=value overrides and result JSON) must survive byte mutations.
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/config.hpp"
#include "common/json.hpp"
#include "report/result_io.hpp"
#include "snapshot/serialize.hpp"

#ifndef DXBAR_TEST_DATA_DIR
#define DXBAR_TEST_DATA_DIR "."
#endif

namespace dxbar {
namespace {

/// One valid value per table entry that differs from closed_loop_base().
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
    {"shards", "2"},
};

/// Closed-loop, so the conditionally written block is in the JSON.
SimConfig closed_loop_base() {
  SimConfig cfg;
  cfg.workload = WorkloadKind::ClosedLoop;
  return cfg;
}

std::string config_json(const SimConfig& cfg) {
  JsonWriter w;
  json_config(w, cfg);
  return w.take();
}

/// `cfg` written as a result document's base_config and read back.
std::string json_round_trip(const SimConfig& cfg, SimConfig& back) {
  report::ResultDoc doc;
  doc.base_config = cfg;
  report::ResultDoc out;
  const std::string err = report::from_json(report::to_json(doc), out);
  back = out.base_config;
  return err;
}

TEST(ConfigTable, EveryFieldRoundTripsThroughOverrideJsonAndSnapshot) {
  ASSERT_EQ(kSamples.size(), config_fields().size());
  const SimConfig base = closed_loop_base();
  for (const ConfigField& f : config_fields()) {
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
    SimConfig from_json;
    ASSERT_EQ(json_round_trip(cfg, from_json), "") << arg;
    EXPECT_EQ(from_json, cfg) << arg;
    SnapshotWriter w;
    save_config(w, from_json);
    SnapshotReader r(w.data());
    EXPECT_EQ(load_config(r), cfg) << arg;
  }
}

/// A reader's result is acceptable when its JSON reads back unchanged.
void expect_stable(const SimConfig& cfg, const std::string& what) {
  SimConfig back;
  ASSERT_EQ(json_round_trip(cfg, back), "") << what;
  EXPECT_EQ(config_json(back), config_json(cfg)) << what;
}

TEST(ConfigTable, FuzzedGoldenConfigNeverEscapesTheReader) {
  // Every single-byte mutation of the golden base_config object must be
  // rejected with an error or read as a config that round-trips.
  std::ifstream in(std::string(DXBAR_TEST_DATA_DIR) +
                   "/golden_result_v2.json");
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string golden = buf.str();
  const std::size_t begin = golden.find("\"base_config\": {");
  ASSERT_NE(begin, std::string::npos);
  const std::size_t end = golden.find('}', begin);
  ASSERT_NE(end, std::string::npos);
  int accepted = 0;
  for (std::size_t i = begin; i <= end; ++i) {
    for (const unsigned char delta : {0x01, 0x02, 0x20, 0x80}) {
      std::string mutated = golden;
      mutated[i] = static_cast<char>(mutated[i] ^ delta);
      report::ResultDoc doc;
      if (!report::from_json(mutated, doc).empty()) continue;
      ++accepted;
      expect_stable(doc.base_config, "byte " + std::to_string(i) +
                                         " delta " + std::to_string(delta));
    }
  }
  EXPECT_GT(accepted, 0);  // digit flips stay readable
}

TEST(ConfigTable, FuzzedOverridesNeverEscapeTheReader) {
  // The same for one key=value override per table entry.
  const SimConfig base = closed_loop_base();
  for (const ConfigField& f : config_fields()) {
    SimConfig sample = base;
    ASSERT_EQ(apply_override(sample, std::string(f.key) + "=" +
                                         kSamples.find(f.key)->second),
              "");
    const std::string arg = std::string(f.key) + "=" + f.text(sample);
    for (std::size_t i = 0; i < arg.size(); ++i) {
      for (const unsigned char delta : {0x01, 0x02, 0x20, 0x80}) {
        std::string mutated = arg;
        mutated[i] = static_cast<char>(mutated[i] ^ delta);
        SimConfig cfg = base;
        if (!apply_override(cfg, mutated).empty()) continue;
        expect_stable(cfg, mutated);
      }
    }
  }
}

}  // namespace
}  // namespace dxbar
