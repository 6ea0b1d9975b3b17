// Strict numeric parsing for the CLI tools (bsub_node, bsub_scale,
// bsub_fleet). A numeric flag value is accepted only when the whole string
// is decimal digits and the value fits the flag's range: no sign, no
// whitespace, no trailing text. "-1" is rejected rather than wrapped to
// 2^64-1, and a typo is rejected rather than read as 0.
#pragma once

#include <charconv>
#include <cstdint>
#include <limits>
#include <string_view>
#include <system_error>

namespace bsub::tools {

/// Parses `text` as a non-negative decimal in [0, max] into `out`. Returns
/// false, leaving `out` unchanged, on anything else.
inline bool parse_u64(std::string_view text, std::uint64_t& out,
                      std::uint64_t max =
                          std::numeric_limits<std::uint64_t>::max()) {
  // from_chars takes no sign and no leading whitespace for unsigned types.
  std::uint64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc{} || ptr != end || v > max) return false;
  out = v;
  return true;
}

}  // namespace bsub::tools
