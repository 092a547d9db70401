#include "common/parse.h"

#include <cmath>

namespace chopper::common {

std::optional<double> parse_double(std::string_view s) noexcept {
  double out = 0.0;
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, out);
  if (s.empty() || ec != std::errc{} || ptr != end || !std::isfinite(out)) {
    return std::nullopt;
  }
  return out;
}

}  // namespace chopper::common
