// Schema-v1 experiment-result documents: the typed form of the JSON
// files `dxbar_bench --json` writes, readable back with a bit-exact
// round-trip guarantee.
//
// `ResultDoc` is used in both directions: the experiment runner builds
// one and serializes it with `to_json` (so the writer and the reader
// share one layout by construction), and the report/diff tools load
// directories of them with `load_result_dir`.  Doubles are serialized
// with %.17g and parsed with strtod, which recovers the exact bit
// pattern; 64-bit integers never round through a double.  Non-finite
// doubles are stored as JSON null and load back as quiet NaN (the only
// lossy case, and it is text-stable: null re-serializes as null).
//
// The reader is strict: a missing or extra key, or a wrong type, is an
// error naming the file, the JSON path and the offending key — schema
// drift fails loudly instead of producing half-filled documents.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/config.hpp"
#include "common/stats.hpp"

namespace dxbar::report {

/// Current (and only) schema version understood by the reader.
inline constexpr int kSchemaVersion = 1;
inline constexpr std::string_view kSchemaName = "dxbar-experiment-result";

struct SeriesDoc {
  std::string label;
  std::vector<double> values;
};

struct TableDoc {
  std::string title;
  std::string x_label;
  std::vector<std::string> x;  ///< row labels, as printed
  std::vector<SeriesDoc> series;
};

/// One raw grid point: the exact SimConfig that ran and its RunStats.
struct PointDoc {
  SimConfig config;
  RunStats stats;
};

struct ResultDoc {
  int schema_version = kSchemaVersion;
  std::string experiment;    ///< registry name, e.g. "fig5"
  std::string title;         ///< human title
  std::string git_describe;  ///< source version the result was built at
  bool quick = false;
  std::string executor;  ///< "warm_sweep" | "campaign" | "custom"
  std::uint64_t warm_groups = 0;  ///< groups among simulated points
  std::vector<std::string> overrides;
  SimConfig base_config;
  std::vector<TableDoc> tables;
  std::string notes;
  std::vector<PointDoc> points;
};

/// Serializes `doc` to the schema-v1 JSON text (trailing newline
/// included, matching what dxbar_bench writes to disk).
std::string to_json(const ResultDoc& doc);

/// Parses schema-v1 JSON text into `out`.  Returns an empty string on
/// success or an actionable error ("tables[0].series[2]: missing key
/// 'values'").  `where` (typically the file name) prefixes the error.
std::string from_json(std::string_view text, ResultDoc& out,
                      std::string_view where = {});

/// Reads one result file.  Returns an empty string on success.
std::string load_result_file(const std::string& path, ResultDoc& out);

/// Reads every `*.json` result document under `dir` (non-recursive),
/// sorted by experiment name in natural order.  Files that fail to
/// parse are reported in the returned error (one line per file) but do
/// not suppress the files that loaded; `out` always holds the loadable
/// subset.  An empty return means every file loaded.
std::string load_result_dir(const std::string& dir,
                            std::vector<ResultDoc>& out);

}  // namespace dxbar::report
