// One field list per plain struct. A struct with a list declares, next to
// itself and in its own namespace (so argument-dependent lookup finds it),
//
//   void visit_fields(SameOrConst<Foo> auto& s, auto&& visit) {
//     visit("a", s.a);
//     visit("b", s.b);
//   }
//
// calling visit(key, field) once per field in declaration order. Everything
// that reads or writes the struct field by field walks this one list: the
// JSON encode and strict decode (common/json.hpp), the trace footer
// (trace/format.hpp) and the tests that check no field is left out. A new
// field costs one visit line; a field the list misses fails those tests.
//
// This header needs no JSON, so the stats structs can include it.
#pragma once

#include <concepts>
#include <type_traits>

namespace aeep {

/// T is U, or const U: one visit_fields serves readers and writers.
template <typename T, typename U>
concept SameOrConst = std::same_as<std::remove_const_t<T>, U>;

/// T has a field list.
template <typename T>
concept HasFields = requires(T& s) {
  visit_fields(s, [](const char*, auto&) {});
};

/// Call fn(leaf) on every field that has no field list of its own, depth
/// first in list order.
template <HasFields S, typename Fn>
void for_each_leaf(S& s, Fn&& fn) {
  visit_fields(s, [&](const char*, auto& field) {
    if constexpr (HasFields<std::remove_reference_t<decltype(field)>>)
      for_each_leaf(field, fn);
    else
      fn(field);
  });
}

}  // namespace aeep
