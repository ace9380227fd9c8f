// Small string helpers shared across modules.

#ifndef DAISY_COMMON_STRING_UTIL_H_
#define DAISY_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace daisy {

/// Splits `text` on `sep`, keeping empty fields. "a,,b" -> {"a","","b"}.
std::vector<std::string> Split(std::string_view text, char sep);

/// Removes leading and trailing ASCII whitespace.
std::string Trim(std::string_view text);

/// ASCII lower-casing.
std::string ToLower(std::string_view text);

/// True if `text` begins with `prefix` (case-sensitive).
bool StartsWith(std::string_view text, std::string_view prefix);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep);

/// Parses the whole of `text` as a decimal integer in [lo, hi]: one or
/// more ASCII digits and nothing else — no sign, no whitespace, no leading
/// or trailing junk. An empty string, overflow or an out-of-range value is
/// InvalidArgument naming the text and the range. For numbers that come
/// from outside the process (command-line flags, socket addresses).
Result<uint64_t> ParseUintInRange(std::string_view text, uint64_t lo,
                                  uint64_t hi);

}  // namespace daisy

#endif  // DAISY_COMMON_STRING_UTIL_H_
