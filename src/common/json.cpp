#include "common/json.hpp"

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <stdexcept>

namespace aeep {

void bad_field(std::string_view at, std::string_view key,
               std::string_view why) {
  throw std::invalid_argument("field '" + std::string(at) + std::string(key) +
                              "' " + std::string(why));
}

JsonValue JsonValue::boolean(bool b) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::number(u64 n) {
  JsonValue v;
  v.kind_ = Kind::kUint;
  v.uint_ = n;
  return v;
}

JsonValue JsonValue::number(double d) {
  JsonValue v;
  v.kind_ = Kind::kDouble;
  v.double_ = d;
  return v;
}

JsonValue JsonValue::string(std::string s) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::array() {
  JsonValue v;
  v.kind_ = Kind::kArray;
  return v;
}

JsonValue JsonValue::object() {
  JsonValue v;
  v.kind_ = Kind::kObject;
  return v;
}

JsonValue JsonValue::object(
    std::vector<std::pair<std::string, JsonValue>> members) {
  const std::size_t n = members.size();
  // repeated[i]: member i repeats an earlier key, whose slot has already
  // taken the last value of that key.
  std::vector<char> repeated;
  // Up to kScanLimit keys a pairwise scan finds the repeats; past it a
  // stable sort of member indices does, so an untrusted object of n keys
  // costs O(n log n). Measured parsing n-key objects (GCC 12 -O2, x86-64):
  // sorting every object parses 2-, 4- and 16-key objects 32%, 19% and
  // 11% slower than scanning (the sort's fixed cost), and from 20 to 64
  // keys the two are within 3%, so the limit sits in that flat middle.
  constexpr std::size_t kScanLimit = 32;
  if (n <= kScanLimit) {
    for (std::size_t i = 1; i < n; ++i) {
      std::size_t k = 0;
      while (k < i && members[k].first != members[i].first) ++k;
      if (k == i) continue;
      if (repeated.empty()) repeated.assign(n, 0);
      members[k].second = std::move(members[i].second);
      repeated[i] = 1;
    }
  } else {
    // Sort member indices by key, stably, so each run of equal keys is in
    // member order: its first member keeps the slot and its last member's
    // value wins.
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return members[a].first < members[b].first;
                     });
    for (std::size_t g = 0, h = 1; g < n; g = h++) {
      while (h < n && members[order[h]].first == members[order[g]].first) ++h;
      if (h - g == 1) continue;
      if (repeated.empty()) repeated.assign(n, 0);
      members[order[g]].second = std::move(members[order[h - 1]].second);
      for (std::size_t k = g + 1; k < h; ++k) repeated[order[k]] = 1;
    }
  }
  if (!repeated.empty()) {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (repeated[i]) continue;
      if (kept != i) members[kept] = std::move(members[i]);
      ++kept;
    }
    members.erase(members.begin() + static_cast<std::ptrdiff_t>(kept),
                  members.end());
  }
  JsonValue v = object();
  v.members_ = std::move(members);
  return v;
}

JsonValue& JsonValue::set(const std::string& key, JsonValue value) {
  if (kind_ == Kind::kNull) kind_ = Kind::kObject;
  assert(kind_ == Kind::kObject);
  for (auto& [k, v] : members_) {
    if (k == key) {
      v = std::move(value);
      return *this;
    }
  }
  members_.emplace_back(key, std::move(value));
  return *this;
}

JsonValue& JsonValue::push(JsonValue value) {
  if (kind_ == Kind::kNull) kind_ = Kind::kArray;
  assert(kind_ == Kind::kArray);
  elements_.push_back(std::move(value));
  return *this;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

bool JsonValue::as_bool(bool def) const {
  return kind_ == Kind::kBool ? bool_ : def;
}

u64 JsonValue::as_u64(u64 def) const {
  if (kind_ == Kind::kUint) return uint_;
  if (kind_ == Kind::kDouble && double_ >= 0.0 &&
      double_ < 18446744073709551616.0 &&  // 2^64
      double_ == std::floor(double_))
    return static_cast<u64>(double_);
  return def;
}

double JsonValue::as_double(double def) const {
  if (kind_ == Kind::kDouble) return double_;
  if (kind_ == Kind::kUint) return static_cast<double>(uint_);
  return def;
}

std::string JsonValue::as_string(const std::string& def) const {
  return kind_ == Kind::kString ? string_ : def;
}

bool JsonValue::get_bool(const std::string& key, bool def) const {
  const JsonValue* v = find(key);
  return v ? v->as_bool(def) : def;
}

u64 JsonValue::get_u64(const std::string& key, u64 def) const {
  const JsonValue* v = find(key);
  return v ? v->as_u64(def) : def;
}

double JsonValue::get_double(const std::string& key, double def) const {
  const JsonValue* v = find(key);
  return v ? v->as_double(def) : def;
}

std::string JsonValue::get_string(const std::string& key,
                                  const std::string& def) const {
  const JsonValue* v = find(key);
  return v ? v->as_string(def) : def;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          // Remaining control characters have no short escape; \u-encode.
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          // Bytes >= 0x20 (including UTF-8 multi-byte sequences) pass
          // through untouched; JSON strings are UTF-8.
          out += c;
        }
    }
  }
  return out;
}

namespace {
void append_newline_indent(std::string& out, int indent, int depth) {
  if (indent <= 0) return;
  out += '\n';
  out.append(static_cast<std::size_t>(indent) * static_cast<std::size_t>(depth),
             ' ');
}
}  // namespace

void JsonValue::dump_to(std::string& out, int indent, int depth) const {
  char buf[64];
  switch (kind_) {
    case Kind::kNull:
      out += "null";
      break;
    case Kind::kBool:
      out += bool_ ? "true" : "false";
      break;
    case Kind::kUint:
      std::snprintf(buf, sizeof(buf), "%llu",
                    static_cast<unsigned long long>(uint_));
      out += buf;
      break;
    case Kind::kDouble:
      // NaN/Inf are not representable in JSON; degrade to null rather than
      // emitting an unparsable token.
      if (std::isfinite(double_)) {
        std::snprintf(buf, sizeof(buf), "%.17g", double_);
        out += buf;
        // Keep doubles distinguishable from integers for schema checkers.
        if (out.find_first_of(".eE", out.size() - std::strlen(buf)) ==
            std::string::npos)
          out += ".0";
      } else {
        out += "null";
      }
      break;
    case Kind::kString:
      out += '"';
      out += json_escape(string_);
      out += '"';
      break;
    case Kind::kArray: {
      if (elements_.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      bool first = true;
      for (const auto& e : elements_) {
        if (!first) out += ',';
        first = false;
        append_newline_indent(out, indent, depth + 1);
        e.dump_to(out, indent, depth + 1);
      }
      append_newline_indent(out, indent, depth);
      out += ']';
      break;
    }
    case Kind::kObject: {
      if (members_.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      bool first = true;
      for (const auto& [k, v] : members_) {
        if (!first) out += ',';
        first = false;
        append_newline_indent(out, indent, depth + 1);
        out += '"';
        out += json_escape(k);
        out += "\": ";
        v.dump_to(out, indent, depth + 1);
      }
      append_newline_indent(out, indent, depth);
      out += '}';
      break;
    }
  }
}

std::string JsonValue::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

// --- Parser ----------------------------------------------------------------

namespace {

constexpr int kMaxParseDepth = 64;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<JsonValue> parse(std::string* error) {
    std::optional<JsonValue> v = value(0);
    if (v) {
      skip_ws();
      if (pos_ != text_.size()) {
        v.reset();
        fail("trailing data after document");
      }
    }
    if (!v && error) *error = error_;
    return v;
  }

 private:
  std::optional<JsonValue> fail(const std::string& what) {
    if (error_.empty())
      error_ = what + " at byte " + std::to_string(pos_);
    return std::nullopt;
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  std::optional<JsonValue> value(int depth) {
    if (depth > kMaxParseDepth) return fail("nesting too deep");
    skip_ws();
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    switch (text_[pos_]) {
      case 'n': return literal("null") ? std::optional<JsonValue>(JsonValue::null())
                                       : fail("bad literal");
      case 't': return literal("true")
                           ? std::optional<JsonValue>(JsonValue::boolean(true))
                           : fail("bad literal");
      case 'f': return literal("false")
                           ? std::optional<JsonValue>(JsonValue::boolean(false))
                           : fail("bad literal");
      case '"': {
        std::string s;
        if (!string_body(s)) return std::nullopt;
        return JsonValue::string(std::move(s));
      }
      case '[': return array_body(depth);
      case '{': return object_body(depth);
      default: return number_body();
    }
  }

  bool string_body(std::string& out) {
    ++pos_;  // opening quote
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("raw control character in string");
        return false;
      }
      if (c != '\\') {
        if (static_cast<unsigned char>(c) < 0x80) {
          out += c;
          ++pos_;
        } else if (!utf8_sequence(out)) {
          return false;
        }
        continue;
      }
      if (pos_ + 1 >= text_.size()) {
        fail("dangling escape");
        return false;
      }
      const char e = text_[pos_ + 1];
      pos_ += 2;
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
          unsigned cp = 0;
          if (!hex4(cp)) return false;
          // Surrogate pair: combine; a lone surrogate degrades to U+FFFD.
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            unsigned lo = 0;
            if (pos_ + 1 < text_.size() && text_[pos_] == '\\' &&
                text_[pos_ + 1] == 'u') {
              pos_ += 2;
              if (!hex4(lo)) return false;
            }
            if (lo >= 0xDC00 && lo <= 0xDFFF)
              cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
            else
              cp = 0xFFFD;
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            cp = 0xFFFD;
          }
          append_utf8(out, cp);
          break;
        }
        default:
          fail("unknown escape");
          return false;
      }
    }
    fail("unterminated string");
    return false;
  }

  /// Consume one multi-byte UTF-8 sequence starting at pos_. Strings must
  /// be well-formed UTF-8 (RFC 8259 §8.1): a stray high byte — a flipped
  /// bit in a wire frame, say — is a parse error, not payload.
  bool utf8_sequence(std::string& out) {
    const auto lead = static_cast<unsigned char>(text_[pos_]);
    std::size_t extra;
    unsigned cp;
    if (lead >= 0xC2 && lead <= 0xDF) {
      extra = 1;
      cp = lead & 0x1Fu;
    } else if (lead >= 0xE0 && lead <= 0xEF) {
      extra = 2;
      cp = lead & 0x0Fu;
    } else if (lead >= 0xF0 && lead <= 0xF4) {
      extra = 3;
      cp = lead & 0x07u;
    } else {  // continuation byte, overlong 0xC0/0xC1, or > 0xF4
      fail("invalid UTF-8 in string");
      return false;
    }
    if (pos_ + extra >= text_.size()) {
      fail("invalid UTF-8 in string");
      return false;
    }
    for (std::size_t i = 1; i <= extra; ++i) {
      const auto b = static_cast<unsigned char>(text_[pos_ + i]);
      if (b < 0x80 || b > 0xBF) {
        fail("invalid UTF-8 in string");
        return false;
      }
      cp = (cp << 6) | (b & 0x3Fu);
    }
    const unsigned floor = extra == 1 ? 0x80u : extra == 2 ? 0x800u : 0x10000u;
    if (cp < floor || cp > 0x10FFFF || (cp >= 0xD800 && cp <= 0xDFFF)) {
      fail("invalid UTF-8 in string");  // overlong, surrogate, or past max
      return false;
    }
    out.append(text_.substr(pos_, extra + 1));
    pos_ += extra + 1;
    return true;
  }

  bool hex4(unsigned& out) {
    if (pos_ + 4 > text_.size()) {
      fail("truncated \\u escape");
      return false;
    }
    out = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_ + static_cast<std::size_t>(i)];
      unsigned digit;
      if (c >= '0' && c <= '9') digit = static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') digit = static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') digit = static_cast<unsigned>(c - 'A' + 10);
      else {
        fail("bad hex digit in \\u escape");
        return false;
      }
      out = (out << 4) | digit;
    }
    pos_ += 4;
    return true;
  }

  static void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  std::optional<JsonValue> number_body() {
    const std::size_t start = pos_;
    bool integral = true;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c >= '0' && c <= '9') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        integral = false;
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) return fail("expected a value");
    const std::string token(text_.substr(start, pos_ - start));
    errno = 0;
    char* end = nullptr;
    if (integral && token[0] != '-') {
      const unsigned long long v = std::strtoull(token.c_str(), &end, 10);
      if (errno == 0 && end && *end == '\0') return JsonValue::number(u64{v});
      // Out-of-range integers fall through to double (lossy but parseable).
    }
    errno = 0;
    const double d = std::strtod(token.c_str(), &end);
    if (!end || *end != '\0' || errno == ERANGE) {
      pos_ = start;
      return fail("malformed number");
    }
    return JsonValue::number(d);
  }

  std::optional<JsonValue> array_body(int depth) {
    ++pos_;  // '['
    JsonValue arr = JsonValue::array();
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return arr;
    }
    while (true) {
      std::optional<JsonValue> v = value(depth + 1);
      if (!v) return std::nullopt;
      arr.push(std::move(*v));
      skip_ws();
      if (pos_ >= text_.size()) return fail("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return arr;
      }
      return fail("expected ',' or ']'");
    }
  }

  std::optional<JsonValue> object_body(int depth) {
    ++pos_;  // '{'
    std::vector<std::pair<std::string, JsonValue>> members;
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return JsonValue::object();
    }
    while (true) {
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != '"')
        return fail("expected object key");
      std::string key;
      if (!string_body(key)) return std::nullopt;
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != ':')
        return fail("expected ':' after key");
      ++pos_;
      std::optional<JsonValue> v = value(depth + 1);
      if (!v) return std::nullopt;
      members.emplace_back(std::move(key), std::move(*v));
      skip_ws();
      if (pos_ >= text_.size()) return fail("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return JsonValue::object(std::move(members));
      }
      return fail("expected ',' or '}'");
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace

std::optional<JsonValue> json_parse(std::string_view text, std::string* error) {
  return Parser(text).parse(error);
}

}  // namespace aeep
