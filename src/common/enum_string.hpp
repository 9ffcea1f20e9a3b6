// String -> enum for the enums whose to_string() spelling is their name on
// the wire, in the store key and on the command line.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

namespace aeep {

/// The enumerator of E that to_string() spells `s`. Walks the enumerators
/// from 0 until to_string answers "?" (each such to_string ends in `return
/// "?"`; -Wswitch keeps its cases complete), so parser and printer cannot
/// drift apart. Allocates nothing unless it throws std::invalid_argument,
/// naming every accepted spelling.
template <typename E>
E enum_from_string(std::string_view s, std::string_view what) {
  int n = 0;
  for (; std::string_view(to_string(static_cast<E>(n))) != "?"; ++n)
    if (s == to_string(static_cast<E>(n))) return static_cast<E>(n);
  std::string accepted;
  for (int i = 0; i < n; ++i)
    accepted += (i == 0 ? "" : " | ") +
                std::string(to_string(static_cast<E>(i)));
  throw std::invalid_argument("unknown " + std::string(what) + " '" +
                              std::string(s) + "' (" + accepted + ")");
}

}  // namespace aeep
