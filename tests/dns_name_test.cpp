#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dns/name.h"
#include "util/hash.h"

namespace eum::dns {
namespace {

TEST(DnsName, FromTextBasics) {
  const DnsName name = DnsName::from_text("www.Example.COM");
  EXPECT_EQ(name.label_count(), 3U);
  EXPECT_EQ(name.to_string(), "www.example.com");
}

TEST(DnsName, RootForms) {
  EXPECT_TRUE(DnsName::from_text("").is_root());
  EXPECT_TRUE(DnsName::from_text(".").is_root());
  EXPECT_EQ(DnsName{}.to_string(), "");
  EXPECT_EQ(DnsName{}.wire_length(), 1U);
}

TEST(DnsName, TrailingDotOptional) {
  EXPECT_EQ(DnsName::from_text("foo.net."), DnsName::from_text("foo.net"));
}

TEST(DnsName, CaseInsensitiveEquality) {
  EXPECT_EQ(DnsName::from_text("FOO.NET"), DnsName::from_text("foo.net"));
  EXPECT_EQ(DnsNameHash{}(DnsName::from_text("FOO.net")),
            DnsNameHash{}(DnsName::from_text("foo.NET")));
}

TEST(DnsName, RejectsInvalidLabels) {
  EXPECT_THROW((void)DnsName::from_text("a..b"), WireError);
  EXPECT_THROW((void)DnsName::from_text(std::string(64, 'x') + ".com"), WireError);
  // A name longer than 255 wire octets.
  std::string long_name;
  for (int i = 0; i < 50; ++i) long_name += "abcdef.";
  long_name += "com";
  EXPECT_THROW((void)DnsName::from_text(long_name), WireError);
}

TEST(DnsName, MaxLabelLengthAccepted) {
  EXPECT_NO_THROW((void)DnsName::from_text(std::string(63, 'x') + ".com"));
}

TEST(DnsName, WireLength) {
  // "foo.net" = 1+3 + 1+3 + 1 = 9.
  EXPECT_EQ(DnsName::from_text("foo.net").wire_length(), 9U);
}

TEST(DnsName, SubdomainRelation) {
  const DnsName zone = DnsName::from_text("b.akamaiedge.net");
  EXPECT_TRUE(DnsName::from_text("e2561.b.akamaiedge.net").is_subdomain_of(zone));
  EXPECT_TRUE(zone.is_subdomain_of(zone));
  EXPECT_FALSE(DnsName::from_text("akamaiedge.net").is_subdomain_of(zone));
  EXPECT_FALSE(DnsName::from_text("b.akamaiedge.org").is_subdomain_of(zone));
  EXPECT_TRUE(zone.is_subdomain_of(DnsName{}));  // everything is under the root
}

TEST(DnsName, ParentAndChild) {
  const DnsName name = DnsName::from_text("a.b.c");
  EXPECT_EQ(name.parent().to_string(), "b.c");
  EXPECT_EQ(name.parent().parent().parent(), DnsName{});
  EXPECT_THROW((void)DnsName{}.parent(), WireError);
  EXPECT_EQ(DnsName::from_text("b.c").child("A").to_string(), "a.b.c");
  EXPECT_THROW((void)DnsName::from_text("x.y").child(""), WireError);
}

TEST(DnsName, FromLabels) {
  const DnsName name = DnsName::from_labels({"WWW", "foo", "net"});
  EXPECT_EQ(name.to_string(), "www.foo.net");
  EXPECT_THROW((void)DnsName::from_labels({""}), WireError);
}

TEST(DnsName, Ordering) {
  EXPECT_LT(DnsName::from_text("a.com"), DnsName::from_text("b.com"));
}

TEST(DnsName, OrderAndHashFollowTheLabelSequence) {
  // Zone's std::map order and ScopedEcsCache's shards depend on these
  // definitions: ordering compares the label sequence from the left, each
  // label as a string, and the hash combines FNV-1a of each label. Names
  // where wire-byte order would differ (label lengths vs. contents,
  // prefixes, a dot-free label longer than its neighbour) are included.
  const std::vector<const char*> texts = {
      "a",    "a.b",  "a.b.c", "ab",      "ab.c",  "a-b",    "b",   "b.a", "z.a",
      "aa.b", "a.bb", "abc",   "x.y.com", "x.com", "xy.com", "com", "0.a", "zz"};
  const auto labels_of = [](const DnsName& name) {
    return std::vector<std::string>(name.labels().begin(), name.labels().end());
  };
  for (const char* a_text : texts) {
    const DnsName a = DnsName::from_text(a_text);
    std::uint64_t hash = 0x9ae16a3b2f90404fULL;
    for (const std::string& label : labels_of(a)) {
      hash = util::hash_combine(hash, util::fnv1a64(label));
    }
    EXPECT_EQ(DnsNameHash{}(a), static_cast<std::size_t>(hash)) << a_text;
    for (const char* b_text : texts) {
      const DnsName b = DnsName::from_text(b_text);
      EXPECT_EQ(a <=> b, labels_of(a) <=> labels_of(b)) << a_text << " vs " << b_text;
    }
  }
}

// ---------- wire encode/decode ----------

std::vector<std::uint8_t> encode_one(const DnsName& name) {
  ByteWriter writer;
  DnsName::CompressionMap compression;
  name.encode(writer, &compression);
  return writer.take();
}

TEST(DnsNameWire, SimpleRoundTrip) {
  const DnsName name = DnsName::from_text("www.example.com");
  const auto wire = encode_one(name);
  // 1+3 + 1+7 + 1+3 + 1 = 17 octets
  EXPECT_EQ(wire.size(), 17U);
  ByteReader reader{wire};
  EXPECT_EQ(DnsName::decode(reader), name);
  EXPECT_TRUE(reader.exhausted());
}

TEST(DnsNameWire, RootRoundTrip) {
  const auto wire = encode_one(DnsName{});
  ASSERT_EQ(wire.size(), 1U);
  EXPECT_EQ(wire[0], 0);
  ByteReader reader{wire};
  EXPECT_TRUE(DnsName::decode(reader).is_root());
}

TEST(DnsNameWire, CompressionSharesSuffix) {
  ByteWriter writer;
  DnsName::CompressionMap compression;
  const DnsName first = DnsName::from_text("a.example.com");
  const DnsName second = DnsName::from_text("b.example.com");
  first.encode(writer, &compression);
  const std::size_t after_first = writer.size();
  second.encode(writer, &compression);
  // Second name: 1+1 ("b") + 2 (pointer) = 4 octets.
  EXPECT_EQ(writer.size() - after_first, 4U);

  const auto wire = writer.take();
  ByteReader reader{wire};
  EXPECT_EQ(DnsName::decode(reader), first);
  EXPECT_EQ(DnsName::decode(reader), second);
  EXPECT_TRUE(reader.exhausted());
}

TEST(DnsNameWire, IdenticalNameBecomesPurePointer) {
  ByteWriter writer;
  DnsName::CompressionMap compression;
  const DnsName name = DnsName::from_text("x.y.z");
  name.encode(writer, &compression);
  const std::size_t first_size = writer.size();
  name.encode(writer, &compression);
  EXPECT_EQ(writer.size() - first_size, 2U);  // one pointer
  const auto wire = writer.take();
  ByteReader reader{wire};
  EXPECT_EQ(DnsName::decode(reader), name);
  EXPECT_EQ(DnsName::decode(reader), name);
}

TEST(DnsNameWire, NoCompressionWhenDisabled) {
  ByteWriter writer;
  const DnsName name = DnsName::from_text("x.y.z");
  name.encode(writer, nullptr);
  name.encode(writer, nullptr);
  EXPECT_EQ(writer.size(), 2 * name.wire_length());
}

TEST(DnsNameWire, DecodeRejectsForwardPointer) {
  // Pointer at offset 0 pointing to offset 10 (forward).
  const std::vector<std::uint8_t> wire{0xC0, 0x0A, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0};
  ByteReader reader{wire};
  EXPECT_THROW((void)DnsName::decode(reader), WireError);
}

TEST(DnsNameWire, DecodeRejectsSelfPointer) {
  const std::vector<std::uint8_t> wire{0xC0, 0x00};
  ByteReader reader{wire};
  EXPECT_THROW((void)DnsName::decode(reader), WireError);
}

TEST(DnsNameWire, DecodeRejectsPointerLoop) {
  // name at 0 points to 2, name at 2 points to 0 -> both are "forward" or
  // looping; must throw rather than hang.
  const std::vector<std::uint8_t> wire{0xC0, 0x02, 0xC0, 0x00};
  ByteReader reader{wire};
  reader.seek(2);
  EXPECT_THROW((void)DnsName::decode(reader), WireError);
}

TEST(DnsNameWire, DecodeRejectsTruncatedLabel) {
  const std::vector<std::uint8_t> wire{5, 'a', 'b'};
  ByteReader reader{wire};
  EXPECT_THROW((void)DnsName::decode(reader), WireError);
}

TEST(DnsNameWire, DecodeRejectsMissingTerminator) {
  const std::vector<std::uint8_t> wire{1, 'a'};
  ByteReader reader{wire};
  EXPECT_THROW((void)DnsName::decode(reader), WireError);
}

TEST(DnsNameWire, DecodeRejectsReservedLabelType) {
  const std::vector<std::uint8_t> wire{0x80, 'a', 0};
  ByteReader reader{wire};
  EXPECT_THROW((void)DnsName::decode(reader), WireError);
}

TEST(DnsNameWire, PointerChainDecodes) {
  // "example.com" at 0; "www" + pointer at offset 13; then a name that is
  // just a pointer to offset 13 ("www.example.com").
  ByteWriter writer;
  DnsName::CompressionMap compression;
  DnsName::from_text("example.com").encode(writer, &compression);
  const auto www_offset = static_cast<std::uint16_t>(writer.size());
  DnsName::from_text("www.example.com").encode(writer, &compression);
  writer.u16(static_cast<std::uint16_t>(0xC000 | www_offset));
  const auto wire = writer.take();

  ByteReader reader{wire};
  reader.seek(wire.size() - 2);
  EXPECT_EQ(DnsName::decode(reader), DnsName::from_text("www.example.com"));
  EXPECT_TRUE(reader.exhausted());
}

TEST(DnsNameWire, CursorRestoredAfterPointer) {
  ByteWriter writer;
  DnsName::CompressionMap compression;
  DnsName::from_text("suffix.net").encode(writer, &compression);
  DnsName::from_text("a.suffix.net").encode(writer, &compression);
  writer.u16(0xBEEF);  // trailing data after the compressed name
  const auto wire = writer.take();

  ByteReader reader{wire};
  reader.seek(DnsName::from_text("suffix.net").wire_length());
  EXPECT_EQ(DnsName::decode(reader), DnsName::from_text("a.suffix.net"));
  EXPECT_EQ(reader.u16(), 0xBEEF);
}

// Round-trip property sweep over representative names.
class NameRoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(NameRoundTrip, EncodeDecodeIdentity) {
  const DnsName name = DnsName::from_text(GetParam());
  const auto wire = encode_one(name);
  ByteReader reader{wire};
  EXPECT_EQ(DnsName::decode(reader), name);
}

INSTANTIATE_TEST_SUITE_P(Sweep, NameRoundTrip,
                         ::testing::Values("a", "a.b", "foo.net", "e2561.b.akamaiedge.net",
                                           "www.w-w-w.x0x.example", "1.2.3.4.in-addr.arpa",
                                           "xn--nxasmq6b.example"));

}  // namespace
}  // namespace eum::dns
