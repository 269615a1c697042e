// FNV-1a over exact bits, for the pin tests: a table or a decision
// sequence hashes to one hex string recorded from a reference
// implementation, so a change that moves any output bit fails the pin.
#pragma once

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

#include "geo/coords.h"

namespace eum::testing {

/// 64-bit FNV-1a over the bytes of the values fed to it.
class Fnv {
 public:
  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001b3ULL;
    }
  }
  void u64(std::uint64_t value) { bytes(&value, sizeof value); }
  void f64(double value) { u64(std::bit_cast<std::uint64_t>(value)); }
  void f32(float value) { u64(std::bit_cast<std::uint32_t>(value)); }
  void text(std::string_view value) {
    u64(value.size());
    bytes(value.data(), value.size());
  }
  void point(const geo::GeoPoint& p) {
    f64(p.lat_deg);
    f64(p.lon_deg);
  }

  [[nodiscard]] std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(hash_));
    return buf;
  }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

}  // namespace eum::testing
