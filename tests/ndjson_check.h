// Minimal NDJSON line validator for tests: parses one flat JSON object
// of string/integer values (the flight-recorder schema) and returns its
// fields decoded. Not a general JSON parser — nested objects and arrays
// are rejected, which is exactly what the flight-recorder schema
// promises not to emit.
#pragma once

#include <cctype>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>

namespace eum::test {

/// Parse `line` as a flat JSON object; nullopt on any syntax violation.
/// String values are returned unescaped; numbers as their literal text.
inline std::optional<std::map<std::string, std::string>> parse_ndjson_line(
    std::string_view line) {
  std::size_t i = 0;
  const auto skip_ws = [&] {
    while (i < line.size() && std::isspace(static_cast<unsigned char>(line[i])) != 0) ++i;
  };
  const auto parse_string = [&]() -> std::optional<std::string> {
    if (i >= line.size() || line[i] != '"') return std::nullopt;
    ++i;
    std::string out;
    while (i < line.size() && line[i] != '"') {
      char c = line[i];
      if (static_cast<unsigned char>(c) < 0x20) return std::nullopt;  // raw control char
      if (c == '\\') {
        if (++i >= line.size()) return std::nullopt;
        switch (line[i]) {
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case '/': c = '/'; break;
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'u': {
            if (i + 4 >= line.size()) return std::nullopt;
            unsigned value = 0;
            for (int d = 0; d < 4; ++d) {
              const char h = line[i + 1 + static_cast<std::size_t>(d)];
              if (std::isxdigit(static_cast<unsigned char>(h)) == 0) return std::nullopt;
              value = value * 16 + static_cast<unsigned>(
                                       h <= '9' ? h - '0' : (h | 0x20) - 'a' + 10);
            }
            i += 4;
            c = static_cast<char>(value);  // tests only escape ASCII
            break;
          }
          default:
            return std::nullopt;
        }
      }
      out.push_back(c);
      ++i;
    }
    if (i >= line.size()) return std::nullopt;  // unterminated
    ++i;                                        // closing quote
    return out;
  };
  const auto parse_number = [&]() -> std::optional<std::string> {
    const std::size_t start = i;
    if (i < line.size() && line[i] == '-') ++i;
    while (i < line.size() && std::isdigit(static_cast<unsigned char>(line[i])) != 0) ++i;
    if (i == start || (line[start] == '-' && i == start + 1)) return std::nullopt;
    return std::string{line.substr(start, i - start)};
  };

  skip_ws();
  if (i >= line.size() || line[i] != '{') return std::nullopt;
  ++i;
  std::map<std::string, std::string> fields;
  skip_ws();
  if (i < line.size() && line[i] == '}') {
    ++i;
  } else {
    while (true) {
      skip_ws();
      const auto key = parse_string();
      if (!key) return std::nullopt;
      if (fields.count(*key) != 0) return std::nullopt;  // duplicate key
      skip_ws();
      if (i >= line.size() || line[i] != ':') return std::nullopt;
      ++i;
      skip_ws();
      std::optional<std::string> value =
          (i < line.size() && line[i] == '"') ? parse_string() : parse_number();
      if (!value) return std::nullopt;
      fields.emplace(*key, std::move(*value));
      skip_ws();
      if (i < line.size() && line[i] == ',') {
        ++i;
        continue;
      }
      if (i < line.size() && line[i] == '}') {
        ++i;
        break;
      }
      return std::nullopt;
    }
  }
  skip_ws();
  if (i != line.size()) return std::nullopt;  // trailing garbage
  return fields;
}

}  // namespace eum::test
