// Minimal JSON document builder + parser for machine-readable bench output
// and the aeep_served wire protocol.
//
// Deliberately tiny: only what a stable, diffable results schema needs —
// objects with insertion-ordered keys (so two runs of the same bench emit
// byte-comparable files), arrays, strings, bools, unsigned integers and
// doubles. Doubles render with %.17g so every distinct value round-trips
// and equal values serialise identically across runs. The parser is the
// inverse: strict recursive descent with a depth limit, returning the same
// JsonValue shape, so a frame can cross a socket as dump() and come back
// through json_parse() unchanged.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace aeep {

class JsonValue {
 public:
  JsonValue() : kind_(Kind::kNull) {}

  static JsonValue null() { return JsonValue(); }
  static JsonValue boolean(bool b);
  static JsonValue number(u64 v);
  static JsonValue number(double v);
  static JsonValue string(std::string s);
  static JsonValue array();
  static JsonValue object();
  /// Object of `members` as if set() one by one: a repeated key keeps its
  /// first position and takes its last value. O(n log n) in the member
  /// count, where n set() calls are quadratic (the parser's path for
  /// untrusted input).
  static JsonValue object(
      std::vector<std::pair<std::string, JsonValue>> members);

  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const {
    return kind_ == Kind::kUint || kind_ == Kind::kDouble;
  }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }

  // --- Checked readers (the wire-protocol accessors) -----------------------
  // Each returns `def` when the value has a different kind, so request
  // handlers can read optional fields without kind-switching; pair with
  // is_*() when absence must be distinguished from the default.
  bool as_bool(bool def = false) const;
  /// kUint directly; a kDouble that is an exact non-negative integer within
  /// u64 range converts (parsers on the far side may not keep the split).
  u64 as_u64(u64 def = 0) const;
  double as_double(double def = 0.0) const;
  std::string as_string(const std::string& def = {}) const;

  /// Convenience: object member's accessor, with `def` when the member is
  /// absent or kind-mismatched. `j.get_u64("job_id", 0)` style.
  bool get_bool(const std::string& key, bool def = false) const;
  u64 get_u64(const std::string& key, u64 def = 0) const;
  double get_double(const std::string& key, double def = 0.0) const;
  std::string get_string(const std::string& key,
                         const std::string& def = {}) const;

  /// Object insert/overwrite; keeps first-insertion order. *this must be an
  /// object (or null, which becomes one).
  JsonValue& set(const std::string& key, JsonValue value);

  /// Array append. *this must be an array (or null, which becomes one).
  JsonValue& push(JsonValue value);

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(const std::string& key) const;
  JsonValue* find(const std::string& key) {
    return const_cast<JsonValue*>(std::as_const(*this).find(key));
  }

  const std::vector<std::pair<std::string, JsonValue>>& members() const {
    return members_;
  }
  const std::vector<JsonValue>& elements() const { return elements_; }

  /// Serialise. `indent` > 0 pretty-prints with that many spaces per level.
  std::string dump(int indent = 2) const;

 private:
  enum class Kind { kNull, kBool, kUint, kDouble, kString, kArray, kObject };

  void dump_to(std::string& out, int indent, int depth) const;

  Kind kind_;
  bool bool_ = false;
  u64 uint_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<JsonValue> elements_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// JSON string escaping (quotes not included).
std::string json_escape(const std::string& s);

/// Parse one JSON document. Strict: the whole input must be consumed
/// (trailing whitespace allowed), strings must be valid escapes, nesting is
/// capped at 64 levels. Returns nullopt on malformed input and, when
/// `error` is non-null, fills it with a message naming the byte offset.
/// Numbers: non-negative integers without '.'/exponent parse as u64 (the
/// wire protocol's ids and counts); everything else parses as double.
std::optional<JsonValue> json_parse(std::string_view text,
                                    std::string* error = nullptr);

}  // namespace aeep
