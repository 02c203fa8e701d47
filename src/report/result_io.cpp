#include "report/result_io.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/json.hpp"
#include "common/text.hpp"

namespace dxbar::report {

// ---------------------------------------------------------------------
// Serialization (the one layout shared with the dxbar_bench writer)

std::string to_json(const ResultDoc& doc) {
  JsonWriter w;
  w.begin_object();
  w.key("schema").value(kSchemaName);
  w.key("schema_version").value(doc.schema_version);
  w.key("experiment").value(doc.experiment);
  w.key("title").value(doc.title);
  w.key("git_describe").value(doc.git_describe);
  w.key("quick").value(doc.quick);
  w.key("executor").value(doc.executor);
  w.key("warm_groups").value(doc.warm_groups);
  w.key("overrides").begin_array();
  for (const std::string& o : doc.overrides) w.value(o);
  w.end_array();
  w.key("base_config");
  json_config(w, doc.base_config);
  w.key("tables").begin_array();
  for (const TableDoc& t : doc.tables) {
    w.begin_object();
    w.key("title").value(t.title);
    w.key("x_label").value(t.x_label);
    w.key("x").begin_array();
    for (const auto& x : t.x) w.value(x);
    w.end_array();
    w.key("series").begin_array();
    for (const SeriesDoc& s : t.series) {
      w.begin_object();
      w.key("label").value(s.label);
      w.key("values").begin_array();
      for (double v : s.values) w.value(v);
      w.end_array();
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.key("notes").value(doc.notes);
  w.key("points").begin_array();
  for (const PointDoc& p : doc.points) {
    w.begin_object();
    w.key("config");
    json_config(w, p.config);
    w.key("stats");
    json_run_stats(w, p.stats);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.take() + "\n";
}

// ---------------------------------------------------------------------
// Parsing

namespace {

/// Strict member extraction with JSON-path error messages.  Every
/// getter records the member as "seen"; `finish()` then rejects any
/// member the schema does not know, so stray keys (schema drift) are
/// loud errors.
class ObjReader {
 public:
  ObjReader(const JsonValue& v, std::string path, std::string& err)
      : v_(v), path_(std::move(path)), err_(err) {
    if (err_.empty() && !v_.is_object()) {
      err_ = path_ + ": expected object, got " + std::string(v_.type_name());
    }
  }

  const JsonValue* get(std::string_view key, JsonValue::Type want,
                       std::string_view want_name) {
    if (!err_.empty()) return nullptr;
    const JsonValue* m = v_.find(key);
    if (m == nullptr) {
      err_ = path_ + ": missing key '" + std::string(key) + "'";
      return nullptr;
    }
    seen_.emplace_back(key);
    if (m->type != want) {
      err_ = path_ + "." + std::string(key) + ": expected " +
             std::string(want_name) + ", got " + std::string(m->type_name());
      return nullptr;
    }
    return m;
  }

  void string(std::string_view key, std::string& out) {
    if (const JsonValue* m = get(key, JsonValue::Type::String, "string")) {
      out = m->scalar;
    }
  }

  void boolean(std::string_view key, bool& out) {
    if (const JsonValue* m = get(key, JsonValue::Type::Bool, "bool")) {
      out = m->boolean;
    }
  }

  /// Number, with JSON null accepted as quiet NaN (the writer clamps
  /// non-finite doubles to null).
  void number(std::string_view key, double& out) {
    if (!err_.empty()) return;
    const JsonValue* m = v_.find(key);
    if (m == nullptr) {
      err_ = path_ + ": missing key '" + std::string(key) + "'";
      return;
    }
    seen_.emplace_back(key);
    if (m->is_null()) {
      out = std::nan("");
      return;
    }
    if (!m->is_number()) {
      err_ = path_ + "." + std::string(key) + ": expected number, got " +
             std::string(m->type_name());
      return;
    }
    out = m->as_double();
  }

  /// Integer through the checked conversion the config fields use: a
  /// fraction, a sign on an unsigned field or a value out of the
  /// field's range is an error, never a truncation.
  template <class T>
  void integer(std::string_view key, T& out) {
    if (const JsonValue* m = get(key, JsonValue::Type::Number, "number")) {
      if (!parse_number(m->scalar, out)) {
        err_ = path_ + "." + std::string(key) + ": bad value " + m->scalar;
      }
    }
  }

  /// The getter for a member's type: number, boolean or integer.
  void scalar(std::string_view key, double& out) { number(key, out); }
  void scalar(std::string_view key, bool& out) { boolean(key, out); }
  template <class T>
  void scalar(std::string_view key, T& out) { integer(key, out); }

  const JsonValue* array(std::string_view key) {
    return get(key, JsonValue::Type::Array, "array");
  }

  const JsonValue* object(std::string_view key) {
    return get(key, JsonValue::Type::Object, "object");
  }

  /// Rejects members no getter asked for.
  void finish() {
    if (!err_.empty()) return;
    for (const auto& [k, m] : v_.members) {
      (void)m;
      bool known = false;
      for (const std::string& s : seen_) {
        if (s == k) {
          known = true;
          break;
        }
      }
      if (!known) {
        err_ = path_ + ": unknown key '" + k +
               "' (schema v" + std::to_string(kSchemaVersion) +
               " does not define it)";
        return;
      }
    }
  }

  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] bool ok() const { return err_.empty(); }

 private:
  const JsonValue& v_;
  std::string path_;
  std::string& err_;
  std::vector<std::string> seen_;
};

/// Reads the fields json_config() writes: named fields by their
/// canonical name, numbers through the checked conversion the overrides
/// use.  A field the writer emits only conditionally is optional.
void read_config(const JsonValue& v, const std::string& path, SimConfig& cfg,
                 std::string& err) {
  ObjReader r(v, path, err);
  for (const ConfigField& f : config_fields()) {
    if (!r.ok()) return;
    const bool optional = f.write_if != nullptr;
    if (f.has(kExecutionOnly) || (optional && v.find(f.key) == nullptr)) {
      continue;
    }
    const JsonValue* m =
        f.named() ? r.get(f.key, JsonValue::Type::String, "string")
                  : r.get(f.key, JsonValue::Type::Number, "number");
    if (m != nullptr && !f.parse(cfg, m->scalar, /*canonical_only=*/true)) {
      const std::string key(f.key);
      err = path + "." + key + ": " +
            (f.named() ? "unknown " + key + " '" + m->scalar + "'"
                       : "bad value " + m->scalar);
      return;
    }
  }
  r.finish();
}

/// Reads the keys json_run_stats() writes.  A row the writer emits only
/// conditionally is optional; a derived row is required, then dropped.
void read_stats(const JsonValue& v, const std::string& path, RunStats& s,
                std::string& err) {
  ObjReader r(v, path, err);
  double derived = 0.0;
  for (const StatsField& f : run_stats_fields()) {
    if (f.write_if != nullptr && v.find(f.key) == nullptr) continue;
    if (f.stored()) {
      f.visit(s, [&](auto& m) { r.scalar(f.key, m); });
    } else {
      r.number(f.key, derived);
    }
  }
  r.finish();
}

void read_table(const JsonValue& v, const std::string& path, TableDoc& t,
                std::string& err) {
  ObjReader r(v, path, err);
  r.string("title", t.title);
  r.string("x_label", t.x_label);
  if (const JsonValue* xs = r.array("x")) {
    for (std::size_t i = 0; i < xs->items.size(); ++i) {
      const JsonValue& x = xs->items[i];
      if (!x.is_string()) {
        err = path + ".x[" + std::to_string(i) + "]: expected string, got " +
              std::string(x.type_name());
        return;
      }
      t.x.push_back(x.scalar);
    }
  }
  if (const JsonValue* series = r.array("series")) {
    for (std::size_t i = 0; i < series->items.size(); ++i) {
      const std::string spath = path + ".series[" + std::to_string(i) + "]";
      SeriesDoc s;
      ObjReader sr(series->items[i], spath, err);
      sr.string("label", s.label);
      if (const JsonValue* values = sr.array("values")) {
        for (std::size_t j = 0; j < values->items.size(); ++j) {
          const JsonValue& val = values->items[j];
          if (val.is_null()) {
            s.values.push_back(std::nan(""));
          } else if (val.is_number()) {
            s.values.push_back(val.as_double());
          } else {
            err = spath + ".values[" + std::to_string(j) +
                  "]: expected number, got " + std::string(val.type_name());
            return;
          }
        }
      }
      sr.finish();
      if (!err.empty()) return;
      if (s.values.size() != t.x.size()) {
        err = spath + ": series '" + s.label + "' has " +
              std::to_string(s.values.size()) + " values for " +
              std::to_string(t.x.size()) + " x entries";
        return;
      }
      t.series.push_back(std::move(s));
    }
  }
  r.finish();
}

}  // namespace

std::string from_json(std::string_view text, ResultDoc& out,
                      std::string_view where) {
  out = ResultDoc{};
  const std::string prefix =
      where.empty() ? std::string() : std::string(where) + ": ";
  JsonValue root;
  if (std::string err = json_parse(text, root); !err.empty()) {
    return prefix + err;
  }

  std::string err;
  ObjReader r(root, "$", err);
  std::string schema;
  r.string("schema", schema);
  if (r.ok() && schema != kSchemaName) {
    return prefix + "$.schema: expected \"" + std::string(kSchemaName) +
           "\", got \"" + schema + "\"";
  }
  int version = 0;
  r.integer("schema_version", version);
  if (r.ok() && version != kSchemaVersion) {
    return prefix + "$.schema_version: this reader understands version " +
           std::to_string(kSchemaVersion) + ", file has " +
           std::to_string(version);
  }
  out.schema_version = version;
  r.string("experiment", out.experiment);
  r.string("title", out.title);
  r.string("git_describe", out.git_describe);
  r.boolean("quick", out.quick);
  r.string("executor", out.executor);
  r.integer("warm_groups", out.warm_groups);
  if (const JsonValue* overrides = r.array("overrides")) {
    for (std::size_t i = 0; i < overrides->items.size(); ++i) {
      const JsonValue& o = overrides->items[i];
      if (!o.is_string()) {
        return prefix + "$.overrides[" + std::to_string(i) +
               "]: expected string, got " + std::string(o.type_name());
      }
      out.overrides.push_back(o.scalar);
    }
  }
  if (const JsonValue* cfg = r.object("base_config")) {
    read_config(*cfg, "$.base_config", out.base_config, err);
  }
  if (const JsonValue* tables = r.array("tables")) {
    for (std::size_t i = 0; i < tables->items.size(); ++i) {
      if (!err.empty()) break;
      TableDoc t;
      read_table(tables->items[i], "$.tables[" + std::to_string(i) + "]", t,
                 err);
      if (err.empty()) out.tables.push_back(std::move(t));
    }
  }
  r.string("notes", out.notes);
  if (const JsonValue* points = r.array("points")) {
    for (std::size_t i = 0; i < points->items.size(); ++i) {
      if (!err.empty()) break;
      const std::string ppath = "$.points[" + std::to_string(i) + "]";
      PointDoc p;
      ObjReader pr(points->items[i], ppath, err);
      if (const JsonValue* cfg = pr.object("config")) {
        read_config(*cfg, ppath + ".config", p.config, err);
      }
      if (const JsonValue* stats = pr.object("stats")) {
        read_stats(*stats, ppath + ".stats", p.stats, err);
      }
      pr.finish();
      if (err.empty()) out.points.push_back(std::move(p));
    }
  }
  r.finish();
  if (!err.empty()) return prefix + err;
  return {};
}

std::string load_result_file(const std::string& path, ResultDoc& out) {
  std::ifstream in(path);
  if (!in) return path + ": cannot open for reading";
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) return path + ": read error";
  return from_json(buf.str(), out, path);
}

std::string load_result_dir(const std::string& dir,
                            std::vector<ResultDoc>& out) {
  namespace fs = std::filesystem;
  out.clear();
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    return dir + ": not a directory";
  }
  std::vector<std::string> files;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.is_regular_file() && entry.path().extension() == ".json") {
      files.push_back(entry.path().string());
    }
  }
  if (ec) return dir + ": " + ec.message();
  std::sort(files.begin(), files.end(), natural_less);

  std::string errors;
  for (const std::string& f : files) {
    ResultDoc doc;
    if (std::string err = load_result_file(f, doc); !err.empty()) {
      if (!errors.empty()) errors += '\n';
      errors += err;
      continue;
    }
    out.push_back(std::move(doc));
  }
  std::sort(out.begin(), out.end(), [](const ResultDoc& a,
                                       const ResultDoc& b) {
    return natural_less(a.experiment, b.experiment);
  });
  return errors;
}

}  // namespace dxbar::report
