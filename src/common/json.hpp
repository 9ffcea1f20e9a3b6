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
//
// fields_to_json / fields_from_json turn a struct with a field list
// (common/fields.hpp) into an object and back: the options document and
// the RunResult codec are both this one walk.
#pragma once

#include <initializer_list>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/enum_string.hpp"
#include "common/fields.hpp"
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

// --- Structs through their field lists --------------------------------------

/// What fields_from_json does with a field its document lacks.
enum class MissingField {
  kKeep,    ///< leave the field as it was: the document overrides defaults
  kRefuse,  ///< throw: the document must name every field
};

/// Throws std::invalid_argument("field '<at><key>' <why>").
[[noreturn]] void bad_field(std::string_view at, std::string_view key,
                            std::string_view why);

/// `into` (an object) with each of `s`'s fields set under its key, in list
/// order. A field is a bool, an unsigned integer, a double, a string, an
/// enum (by its to_string spelling), a struct with a field list (as an
/// object) or a vector of these (as an array).
template <HasFields S>
JsonValue fields_to_json(const S& s, JsonValue into = JsonValue::object());

/// Strict inverse of fields_to_json, into `s`. A member of another kind,
/// a number its field cannot hold, an unknown enum spelling and a key that
/// is neither a field nor in `skip` throw std::invalid_argument naming
/// `at` + the key; so does an absent field under MissingField::kRefuse,
/// which nested structs and vector elements inherit.
template <HasFields S>
void fields_from_json(const JsonValue& doc, S& s, MissingField missing,
                      std::initializer_list<std::string_view> skip = {},
                      const std::string& at = {});

/// One field's value, as fields_to_json writes it.
template <typename T>
JsonValue field_to_json(const T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    return JsonValue::boolean(v);
  } else if constexpr (std::is_enum_v<T>) {
    return JsonValue::string(to_string(v));
  } else if constexpr (std::is_integral_v<T>) {
    return JsonValue::number(u64{v});
  } else if constexpr (std::is_floating_point_v<T>) {
    return JsonValue::number(v);
  } else if constexpr (std::is_same_v<T, std::string>) {
    return JsonValue::string(v);
  } else if constexpr (HasFields<const T>) {
    return fields_to_json(v);
  } else {
    JsonValue a = JsonValue::array();
    for (const auto& e : v) a.push(field_to_json(e));
    return a;
  }
}

/// One field's value, as fields_from_json reads it. A leaf's error path is
/// `at` + `key` ("stuck_faults[1]." + "way"), joined only when an error is
/// thrown: the decoder runs on every wire job and every store hit.
template <typename T>
void field_from_json(const JsonValue& v, const std::string& at,
                     std::string_view key, MissingField missing, T& out) {
  if constexpr (std::is_same_v<T, bool>) {
    if (!v.is_bool()) bad_field(at, key, "must be true or false");
    out = v.as_bool();
  } else if constexpr (std::is_enum_v<T>) {
    if (!v.is_string()) bad_field(at, key, "must be a string");
    out = enum_from_string<T>(v.as_string(), at + std::string(key));
  } else if constexpr (std::is_integral_v<T>) {
    const u64 n = v.as_u64(0);  // as_u64(0) != as_u64(1): not a u64
    if (n != v.as_u64(1) || n > std::numeric_limits<T>::max())
      bad_field(at, key, "must be an unsigned integer that fits its field");
    out = static_cast<T>(n);
  } else if constexpr (std::is_floating_point_v<T>) {
    if (!v.is_number()) bad_field(at, key, "must be a number");
    out = v.as_double();
  } else if constexpr (std::is_same_v<T, std::string>) {
    if (!v.is_string()) bad_field(at, key, "must be a string");
    out = v.as_string();
  } else if constexpr (HasFields<T>) {
    if (!v.is_object()) bad_field(at, key, "must be an object");
    fields_from_json(v, out, missing, {}, at + std::string(key) + ".");
  } else {
    if (!v.is_array()) bad_field(at, key, "must be an array");
    out.clear();
    for (const JsonValue& e : v.elements()) {
      const std::string elem = at + std::string(key) + "[" +
                               std::to_string(out.size()) + "]";
      field_from_json(e, elem, "", missing, out.emplace_back());
    }
  }
}

template <HasFields S>
JsonValue fields_to_json(const S& s, JsonValue into) {
  visit_fields(s, [&](const char* key, const auto& field) {
    into.set(key, field_to_json(field));
  });
  return into;
}

template <HasFields S>
void fields_from_json(const JsonValue& doc, S& s, MissingField missing,
                      std::initializer_list<std::string_view> skip,
                      const std::string& at) {
  if (!doc.is_object()) bad_field(at, "", "must be an object");
  // Members in list order, with or without other keys between them, are
  // found in one pass; a member out of list order costs a lookup.
  const auto& members = doc.members();
  std::size_t next = 0;
  std::size_t found = 0;
  visit_fields(s, [&](const char* key, auto& field) {
    std::size_t i = next;
    while (i < members.size() && members[i].first != key) ++i;
    const bool in_order = i < members.size();
    if (in_order) next = i + 1;
    const JsonValue* v = in_order ? &members[i].second : doc.find(key);
    if (v == nullptr) {
      if (missing == MissingField::kRefuse) bad_field(at, key, "is missing");
      return;
    }
    ++found;
    field_from_json(*v, at, key, missing, field);
  });
  for (const std::string_view k : skip)
    found += doc.find(std::string(k)) != nullptr;
  if (found == members.size()) return;  // keys are unique: none unknown
  for (const auto& [key, value] : members) {
    bool known = false;
    for (const std::string_view k : skip) known = known || key == k;
    visit_fields(s, [&](const char* name, auto&) {
      known = known || key == name;
    });
    if (!known) bad_field(at, key, "is unknown");
  }
}

}  // namespace aeep
