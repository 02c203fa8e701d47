// Minimal JSON emission and parsing (no external dependency): an
// append-style writer with automatic comma/indent bookkeeping, a small
// recursive-descent DOM parser, plus serializers for the two structs
// the experiment harness persists (SimConfig, RunStats).
//
// Doubles are printed with %.17g so a reader recovers the exact bit
// pattern — the harness's determinism guarantees are checked through
// this text form.  The parser keeps every number's source lexeme, so
// integer fields round-trip without a double conversion in between.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "common/stats.hpp"

namespace dxbar {

class JsonWriter {
 public:
  /// `indent` spaces per nesting level; 0 = compact single line.
  explicit JsonWriter(int indent = 2) : indent_(indent) {}

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Object member key; must be followed by a value or container open.
  JsonWriter& key(std::string_view k);

  JsonWriter& value(std::string_view s);
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }
  JsonWriter& value(double d);
  JsonWriter& value(bool b);
  JsonWriter& value(std::int64_t i);
  JsonWriter& value(std::uint64_t u);
  JsonWriter& value(int i) { return value(static_cast<std::int64_t>(i)); }
  JsonWriter& value(unsigned u) {
    return value(static_cast<std::uint64_t>(u));
  }

  [[nodiscard]] const std::string& str() const { return out_; }
  [[nodiscard]] std::string take() { return std::move(out_); }

 private:
  void before_value();
  void newline();

  std::string out_;
  int indent_;
  int depth_ = 0;
  bool need_comma_ = false;
  bool after_key_ = false;
};

/// Escapes `s` for inclusion inside a JSON string literal (no quotes).
std::string json_escape(std::string_view s);

/// Parsed JSON document node.  Numbers keep their source lexeme and are
/// converted on access, so `%.17g`-printed doubles recover the exact
/// bit pattern and 64-bit integers never round through a double.
struct JsonValue {
  enum class Type { Null, Bool, Number, String, Array, Object };

  Type type = Type::Null;
  bool boolean = false;
  /// String value (unescaped) for Type::String; number lexeme for
  /// Type::Number.
  std::string scalar;
  std::vector<JsonValue> items;  ///< Type::Array elements, in order
  /// Type::Object members in source order (duplicate keys are rejected
  /// by the parser).
  std::vector<std::pair<std::string, JsonValue>> members;

  [[nodiscard]] bool is_null() const noexcept { return type == Type::Null; }
  [[nodiscard]] bool is_object() const noexcept {
    return type == Type::Object;
  }
  [[nodiscard]] bool is_array() const noexcept { return type == Type::Array; }
  [[nodiscard]] bool is_string() const noexcept {
    return type == Type::String;
  }
  [[nodiscard]] bool is_number() const noexcept {
    return type == Type::Number;
  }

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* find(std::string_view key) const noexcept;

  /// Number conversions (valid only for Type::Number; strtod of a
  /// %.17g lexeme is bit-exact).
  [[nodiscard]] double as_double() const noexcept;
  [[nodiscard]] std::int64_t as_int64() const noexcept;
  [[nodiscard]] std::uint64_t as_uint64() const noexcept;

  /// Human name of `type` for error messages ("object", "number", ...).
  [[nodiscard]] std::string_view type_name() const noexcept;
};

/// Parses one complete JSON document (trailing whitespace allowed,
/// anything else after the value is an error).  Returns an empty string
/// on success, or an actionable message with 1-based line:column
/// position ("line 3:17: expected ':' after object key").
std::string json_parse(std::string_view text, JsonValue& out);

/// Emits the serialized SimConfig fields as one JSON object, in
/// config_fields() order and under their override keys (so a config
/// object can be replayed as key=value overrides); a field with a
/// write_if is emitted only where it holds.
void json_config(JsonWriter& w, const SimConfig& cfg);

/// Emits a RunStats as one JSON object, in run_stats_fields() order (raw
/// fields plus the derived energy-per-packet metric the paper plots).
void json_run_stats(JsonWriter& w, const RunStats& s);

}  // namespace dxbar
