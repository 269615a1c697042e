// Small string helpers shared across modules.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace eum::util {

/// Split on a delimiter; empty fields are preserved ("a,,b" -> {"a","","b"}).
[[nodiscard]] std::vector<std::string_view> split(std::string_view text, char delim);

/// Strip leading/trailing ASCII whitespace.
[[nodiscard]] std::string_view trim(std::string_view text) noexcept;

/// ASCII lower-casing (DNS names are case-insensitive in the ASCII range).
[[nodiscard]] std::string to_lower(std::string_view text);

/// Case-insensitive ASCII equality.
[[nodiscard]] bool iequals(std::string_view a, std::string_view b) noexcept;

/// printf-style formatting into a std::string.
[[nodiscard]] std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Human-readable count with thousands separators ("1234567" -> "1,234,567").
[[nodiscard]] std::string with_commas(std::int64_t value);

/// JSON string-body escaping: quotes, backslashes and control characters
/// (the NDJSON and JSON expositions in obs).
[[nodiscard]] std::string json_escape(std::string_view text);

}  // namespace eum::util
