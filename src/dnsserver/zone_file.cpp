#include "dnsserver/zone_file.h"

#include <charconv>
#include <optional>
#include <vector>

#include "util/strings.h"

namespace eum::dnsserver {

namespace {

using dns::DnsName;

/// Tokenize one line, honouring quoted strings and ';' comments.
std::vector<std::string> tokenize(std::string_view line, std::size_t line_no) {
  std::vector<std::string> tokens;
  std::size_t i = 0;
  while (i < line.size()) {
    const char c = line[i];
    if (c == ';') break;  // comment to end of line
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (c == '"') {
      std::string value;
      ++i;
      while (i < line.size() && line[i] != '"') value.push_back(line[i++]);
      if (i >= line.size()) throw ZoneFileError{line_no, "unterminated quoted string"};
      ++i;  // closing quote
      tokens.push_back("\"" + value);  // keep a marker so TXT knows it was quoted
      continue;
    }
    std::string value;
    while (i < line.size() && !std::isspace(static_cast<unsigned char>(line[i])) &&
           line[i] != ';') {
      value.push_back(line[i++]);
    }
    tokens.push_back(std::move(value));
  }
  return tokens;
}

/// Resolve a possibly-relative name against the origin.
DnsName resolve_name(std::string_view token, const DnsName& origin, std::size_t line_no) {
  try {
    if (token == "@") return origin;
    if (!token.empty() && token.back() == '.') return DnsName::from_text(token);
    // Relative: append the origin labels.
    DnsName relative = DnsName::from_text(token);
    std::vector<std::string> labels(relative.labels().begin(), relative.labels().end());
    labels.insert(labels.end(), origin.labels().begin(), origin.labels().end());
    return DnsName::from_labels(std::move(labels));
  } catch (const dns::WireError& error) {
    throw ZoneFileError{line_no, std::string{"bad name '"} + std::string{token} +
                                     "': " + error.what()};
  }
}

std::optional<std::uint32_t> parse_u32(std::string_view token) {
  std::uint32_t value = 0;
  const auto [ptr, ec] = std::from_chars(token.data(), token.data() + token.size(), value);
  if (ec != std::errc{} || ptr != token.data() + token.size()) return std::nullopt;
  return value;
}

}  // namespace

Zone parse_zone_file(std::string_view text, const DnsName& fallback_origin) {
  DnsName origin = fallback_origin;
  std::uint32_t default_ttl = 3600;
  std::optional<Zone> zone;

  std::size_t line_no = 0;
  for (const auto raw_line : util::split(text, '\n')) {
    ++line_no;
    const auto tokens = tokenize(raw_line, line_no);
    if (tokens.empty()) continue;

    // Directives.
    if (tokens[0] == "$ORIGIN") {
      if (tokens.size() != 2) throw ZoneFileError{line_no, "$ORIGIN needs one argument"};
      origin = resolve_name(tokens[1], DnsName{}, line_no);
      continue;
    }
    if (tokens[0] == "$TTL") {
      if (tokens.size() != 2) throw ZoneFileError{line_no, "$TTL needs one argument"};
      const auto ttl = parse_u32(tokens[1]);
      if (!ttl) throw ZoneFileError{line_no, "bad $TTL value"};
      default_ttl = *ttl;
      continue;
    }

    // Record line: NAME [TTL] TYPE RDATA...
    std::size_t cursor = 0;
    const DnsName owner = resolve_name(tokens[cursor++], origin, line_no);
    std::uint32_t ttl = default_ttl;
    if (cursor < tokens.size()) {
      if (const auto explicit_ttl = parse_u32(tokens[cursor])) {
        ttl = *explicit_ttl;
        ++cursor;
      }
    }
    if (cursor >= tokens.size()) throw ZoneFileError{line_no, "missing record type"};
    const std::string type = util::to_lower(tokens[cursor++]);
    const auto need = [&](std::size_t n, const char* what) {
      if (tokens.size() - cursor != n) {
        throw ZoneFileError{line_no, std::string{what} + ": wrong number of fields"};
      }
    };

    if (type == "soa") {
      need(7, "SOA");
      if (zone.has_value()) throw ZoneFileError{line_no, "duplicate SOA"};
      dns::SoaRecord soa;
      soa.mname = resolve_name(tokens[cursor], origin, line_no);
      soa.rname = resolve_name(tokens[cursor + 1], origin, line_no);
      const char* field_names[5] = {"serial", "refresh", "retry", "expire", "minimum"};
      std::uint32_t fields[5];
      for (int f = 0; f < 5; ++f) {
        const auto value = parse_u32(tokens[cursor + 2 + static_cast<std::size_t>(f)]);
        if (!value) {
          throw ZoneFileError{line_no, std::string{"bad SOA "} + field_names[f]};
        }
        fields[f] = *value;
      }
      soa.serial = fields[0];
      soa.refresh = fields[1];
      soa.retry = fields[2];
      soa.expire = fields[3];
      soa.minimum = fields[4];
      zone.emplace(owner, soa);
      continue;
    }

    if (!zone.has_value()) throw ZoneFileError{line_no, "record before SOA"};
    try {
      if (type == "a") {
        need(1, "A");
        const auto addr = net::IpV4Addr::parse(tokens[cursor]);
        if (!addr) throw ZoneFileError{line_no, "bad IPv4 address"};
        zone->add_a(owner, *addr, ttl);
      } else if (type == "aaaa") {
        need(1, "AAAA");
        const auto addr = net::IpV6Addr::parse(tokens[cursor]);
        if (!addr) throw ZoneFileError{line_no, "bad IPv6 address"};
        zone->add(dns::ResourceRecord{owner, dns::RecordType::AAAA, dns::RecordClass::IN, ttl,
                                      dns::AaaaRecord{*addr}});
      } else if (type == "cname") {
        need(1, "CNAME");
        zone->add_cname(owner, resolve_name(tokens[cursor], origin, line_no), ttl);
      } else if (type == "ns") {
        need(1, "NS");
        zone->add_ns(owner, resolve_name(tokens[cursor], origin, line_no), ttl);
      } else if (type == "txt") {
        if (tokens.size() == cursor) throw ZoneFileError{line_no, "TXT needs strings"};
        dns::TxtRecord txt;
        for (std::size_t t = cursor; t < tokens.size(); ++t) {
          // Strip the quoted-string marker if present.
          const std::string& token = tokens[t];
          std::string value = token.starts_with('"') ? token.substr(1) : token;
          // RFC 1035 §3.3.14: each character-string is at most 255 octets.
          // Reject here — a longer string would parse fine but throw
          // WireError when the serve path encodes the answer (found by
          // fuzz_zone_file; pinned in tests/dns_fuzz_test.cpp).
          if (value.size() > 255) {
            throw ZoneFileError{line_no, "TXT character-string longer than 255 octets"};
          }
          txt.strings.push_back(std::move(value));
        }
        zone->add(dns::ResourceRecord{owner, dns::RecordType::TXT, dns::RecordClass::IN, ttl,
                                      std::move(txt)});
      } else {
        throw ZoneFileError{line_no, "unsupported record type '" + type + "'"};
      }
    } catch (const std::invalid_argument& error) {
      throw ZoneFileError{line_no, error.what()};
    }
  }
  if (!zone.has_value()) throw ZoneFileError{line_no, "zone file has no SOA record"};
  return std::move(*zone);
}

}  // namespace eum::dnsserver
