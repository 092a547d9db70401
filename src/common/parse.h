// Checked token parsers for every readable input (plan configs, the workload
// DB, WAL JSONL, checkpoint file names, CLI flags). Each takes a whole token
// and returns nullopt unless all of it is valid; require() turns nullopt into
// a ParseError for callers with a source to blame.
#pragma once

#include <charconv>
#include <concepts>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>

namespace chopper::common {

/// A malformed token in a readable input. what() names the source (file, or
/// file:line) and the key or field.
class ParseError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A whole integer in T's range, in base `Base` (decimal by default): no
/// whitespace, '+', exponent, radix prefix ("0x") or wrap-around; unsigned T
/// takes no sign at all.
template <std::integral T, int Base = 10>
std::optional<T> parse_int(std::string_view s) noexcept {
  T out{};
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, out, Base);
  if (s.empty() || ec != std::errc{} || ptr != end) return std::nullopt;
  return out;
}

/// A whole finite double (no nan/inf, no '+').
std::optional<double> parse_double(std::string_view s) noexcept;

/// parse_int or parse_double, by T.
template <typename T>
std::optional<T> parse_number(std::string_view s) noexcept {
  if constexpr (std::is_floating_point_v<T>) {
    return parse_double(s);
  } else {
    return parse_int<T>(s);
  }
}

/// An enum stored as its integer value, checked against [0, last].
template <typename E>
std::optional<E> parse_enum(std::string_view s, E last) noexcept {
  const auto v = parse_int<std::uint64_t>(s);
  if (!v || *v > static_cast<std::uint64_t>(last)) return std::nullopt;
  return static_cast<E>(*v);
}

/// The parsed value, or a ParseError "<source>: invalid <field> '<token>'".
template <typename T>
T require(std::optional<T> v, std::string_view source, std::string_view field,
          std::string_view token) {
  if (v) return *v;
  throw ParseError(std::string(source) + ": invalid " + std::string(field) +
                   " '" + std::string(token) + "'");
}

}  // namespace chopper::common
