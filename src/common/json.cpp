#include "common/json.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <type_traits>

namespace dxbar {

void JsonWriter::newline() {
  if (indent_ <= 0) return;
  out_ += '\n';
  out_.append(static_cast<std::size_t>(depth_ * indent_), ' ');
}

void JsonWriter::before_value() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (need_comma_) out_ += ',';
  if (depth_ > 0) newline();
}

JsonWriter& JsonWriter::begin_object() {
  before_value();
  out_ += '{';
  ++depth_;
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  --depth_;
  if (need_comma_) newline();
  out_ += '}';
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  before_value();
  out_ += '[';
  ++depth_;
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  --depth_;
  if (need_comma_) newline();
  out_ += ']';
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  if (need_comma_) out_ += ',';
  newline();
  out_ += '"';
  out_ += json_escape(k);
  out_ += "\": ";
  need_comma_ = false;
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view s) {
  before_value();
  out_ += '"';
  out_ += json_escape(s);
  out_ += '"';
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(double d) {
  before_value();
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", d);
  // JSON has no inf/nan literals; clamp to null.
  const std::string_view sv(buf);
  if (sv.find("inf") != std::string_view::npos ||
      sv.find("nan") != std::string_view::npos) {
    out_ += "null";
  } else {
    out_ += buf;
  }
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(bool b) {
  before_value();
  out_ += b ? "true" : "false";
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t i) {
  before_value();
  out_ += std::to_string(i);
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t u) {
  before_value();
  out_ += std::to_string(u);
  need_comma_ = true;
  return *this;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

const JsonValue* JsonValue::find(std::string_view key) const noexcept {
  if (type != Type::Object) return nullptr;
  for (const auto& [k, v] : members) {
    if (k == key) return &v;
  }
  return nullptr;
}

double JsonValue::as_double() const noexcept {
  return std::strtod(scalar.c_str(), nullptr);
}

std::int64_t JsonValue::as_int64() const noexcept {
  return std::strtoll(scalar.c_str(), nullptr, 10);
}

std::uint64_t JsonValue::as_uint64() const noexcept {
  return std::strtoull(scalar.c_str(), nullptr, 10);
}

std::string_view JsonValue::type_name() const noexcept {
  switch (type) {
    case Type::Null: return "null";
    case Type::Bool: return "bool";
    case Type::Number: return "number";
    case Type::String: return "string";
    case Type::Array: return "array";
    case Type::Object: return "object";
  }
  return "?";
}

namespace {

/// Recursive-descent parser over an in-memory document.  Errors carry a
/// 1-based line:column computed from the failing offset.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  std::string parse(JsonValue& out) {
    std::string err = value(out, 0);
    if (!err.empty()) return err;
    skip_ws();
    if (pos_ != text_.size()) {
      return fail("trailing content after the JSON document");
    }
    return {};
  }

 private:
  static constexpr int kMaxDepth = 64;

  std::string fail(const std::string& what) const {
    std::size_t line = 1, col = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    char where[48];
    std::snprintf(where, sizeof(where), "line %zu:%zu: ", line, col);
    return where + what;
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool eat(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  std::string string_body(std::string& out) {
    // Caller consumed the opening quote.
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return {};
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return fail("unescaped control character inside string");
      }
      if (c != '\\') {
        out += c;
        ++pos_;
        continue;
      }
      ++pos_;
      if (pos_ >= text_.size()) break;
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            return fail("truncated \\u escape");
          }
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_ + static_cast<std::size_t>(i)];
            cp <<= 4;
            if (h >= '0' && h <= '9') {
              cp |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              cp |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              cp |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return fail("bad hex digit in \\u escape");
            }
          }
          pos_ += 4;
          // UTF-8 encode (surrogate pairs are not combined — the writer
          // only ever emits \u00xx for control characters).
          if (cp < 0x80) {
            out += static_cast<char>(cp);
          } else if (cp < 0x800) {
            out += static_cast<char>(0xC0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          }
          break;
        }
        default: return fail("unknown escape sequence");
      }
    }
    return fail("unterminated string");
  }

  std::string number(JsonValue& out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    auto digits = [&]() {
      const std::size_t before = pos_;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
      return pos_ > before;
    };
    if (!digits()) return fail("malformed number");
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (!digits()) return fail("malformed number (missing fraction)");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (!digits()) return fail("malformed number (missing exponent)");
    }
    out.type = JsonValue::Type::Number;
    out.scalar.assign(text_.substr(start, pos_ - start));
    return {};
  }

  std::string value(JsonValue& out, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    skip_ws();
    if (pos_ >= text_.size()) return fail("unexpected end of document");
    const char c = text_[pos_];
    if (c == '{') {
      ++pos_;
      out.type = JsonValue::Type::Object;
      if (eat('}')) return {};
      do {
        skip_ws();
        if (!eat('"')) return fail("expected '\"' to open an object key");
        std::string key;
        if (auto err = string_body(key); !err.empty()) return err;
        if (out.find(key) != nullptr) {
          return fail("duplicate object key \"" + key + "\"");
        }
        if (!eat(':')) return fail("expected ':' after object key");
        JsonValue member;
        if (auto err = value(member, depth + 1); !err.empty()) return err;
        out.members.emplace_back(std::move(key), std::move(member));
      } while (eat(','));
      if (!eat('}')) return fail("expected ',' or '}' inside object");
      return {};
    }
    if (c == '[') {
      ++pos_;
      out.type = JsonValue::Type::Array;
      if (eat(']')) return {};
      do {
        JsonValue item;
        if (auto err = value(item, depth + 1); !err.empty()) return err;
        out.items.push_back(std::move(item));
      } while (eat(','));
      if (!eat(']')) return fail("expected ',' or ']' inside array");
      return {};
    }
    if (c == '"') {
      ++pos_;
      out.type = JsonValue::Type::String;
      return string_body(out.scalar);
    }
    if (c == 't') {
      if (!literal("true")) return fail("bad literal (expected 'true')");
      out.type = JsonValue::Type::Bool;
      out.boolean = true;
      return {};
    }
    if (c == 'f') {
      if (!literal("false")) return fail("bad literal (expected 'false')");
      out.type = JsonValue::Type::Bool;
      out.boolean = false;
      return {};
    }
    if (c == 'n') {
      if (!literal("null")) return fail("bad literal (expected 'null')");
      out.type = JsonValue::Type::Null;
      return {};
    }
    if (c == '-' || (c >= '0' && c <= '9')) return number(out);
    return fail(std::string("unexpected character '") + c + "'");
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string json_parse(std::string_view text, JsonValue& out) {
  out = JsonValue{};
  return JsonParser(text).parse(out);
}

void json_config(JsonWriter& w, const SimConfig& cfg) {
  w.begin_object();
  for (const ConfigField& f : config_fields()) {
    if (!f.written(cfg)) continue;
    w.key(f.key);
    if (f.named()) {
      w.value(f.name_of(cfg));
    } else {
      f.visit(cfg, [&](auto v) {
        if constexpr (std::is_arithmetic_v<decltype(v)>) w.value(v);
      });
    }
  }
  w.end_object();
}

void json_run_stats(JsonWriter& w, const RunStats& s) {
  w.begin_object();
  for (const StatsField& f : run_stats_fields()) {
    if (f.write_if != nullptr && !f.write_if(s)) continue;
    w.key(f.key);
    if (f.stored()) {
      f.visit(s, [&](auto v) { w.value(v); });
    } else {
      w.value(f.derived(s));
    }
  }
  w.end_object();
}

}  // namespace dxbar
