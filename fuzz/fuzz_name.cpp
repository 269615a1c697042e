// Harness: DnsName text parsing and wire decoding.
//
// The first input byte selects the mode:
//   even — presentation form: from_text over the remaining bytes as a
//          string; on success, to_string/from_text must round-trip to an
//          equal name (labels are stored lowercased, so the trip through
//          text is lossless).
//   odd  — wire form: DnsName::decode over the remaining bytes
//          (compression pointers resolve within this buffer); on
//          success, an uncompressed re-encode must decode back to the
//          same labels, and the advertised wire_length must match what
//          an uncompressed encode actually produces.
// In both modes the allocation-free presentation form (to_text) must
// equal to_string() and the labels joined with dots.
#include <string>
#include <string_view>

#include "dns/name.h"
#include "fuzz/harness.h"

namespace {

void check_presentation(const eum::dns::DnsName& name) {
  std::string joined;
  for (const std::string_view label : name.labels()) {
    if (!joined.empty()) joined += '.';
    joined += label;
  }
  eum::dns::DnsName::TextBuffer buffer;
  FUZZ_CHECK(name.to_text(buffer) == joined);
  FUZZ_CHECK(name.to_string() == joined);
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  using eum::dns::ByteReader;
  using eum::dns::ByteWriter;
  using eum::dns::DnsName;
  using eum::dns::WireError;

  if (size == 0) return 0;
  const bool text_mode = (data[0] % 2) == 0;
  const std::uint8_t* body = data + 1;
  const std::size_t body_size = size - 1;

  if (text_mode) {
    const std::string_view text{reinterpret_cast<const char*>(body), body_size};
    DnsName name;
    try {
      name = DnsName::from_text(text);
    } catch (const WireError&) {
      return 0;
    }
    check_presentation(name);
    const std::string printed = name.to_string();
    DnsName reparsed;
    try {
      reparsed = DnsName::from_text(printed);
    } catch (const WireError&) {
      FUZZ_CHECK(!"to_string() of a valid name failed to re-parse");
    }
    FUZZ_CHECK(reparsed == name);
    FUZZ_CHECK(name.wire_length() <= 255);
    return 0;
  }

  ByteReader reader{{body, body_size}};
  DnsName name;
  try {
    name = DnsName::decode(reader);
  } catch (const WireError&) {
    return 0;
  }
  // The cursor must have ended inside the buffer (never past it).
  FUZZ_CHECK(reader.offset() <= body_size);
  FUZZ_CHECK(name.wire_length() <= 255);
  check_presentation(name);

  // Uncompressed re-encode must be exactly wire_length() octets and
  // decode back to the same labels (wire-decoded labels may contain
  // bytes text form cannot express, so the trip stays in wire form).
  ByteWriter writer;
  name.encode(writer, nullptr);
  FUZZ_CHECK(writer.size() == name.wire_length());
  ByteReader round{writer.buffer()};
  DnsName redecoded;
  try {
    redecoded = DnsName::decode(round);
  } catch (const WireError&) {
    FUZZ_CHECK(!"uncompressed encode of a decoded name failed to decode");
  }
  FUZZ_CHECK(redecoded == name);
  FUZZ_CHECK(round.exhausted());
  return 0;
}
