#include "dns/message.h"

namespace eum::dns {

namespace {

constexpr std::uint16_t kFlagQr = 0x8000;
constexpr std::uint16_t kFlagAa = 0x0400;
constexpr std::uint16_t kFlagTc = 0x0200;
constexpr std::uint16_t kFlagRd = 0x0100;
constexpr std::uint16_t kFlagRa = 0x0080;

std::uint16_t pack_flags(const Header& h) {
  std::uint16_t flags = 0;
  if (h.is_response) flags |= kFlagQr;
  flags |= static_cast<std::uint16_t>((static_cast<std::uint16_t>(h.opcode) & 0xF) << 11);
  if (h.authoritative) flags |= kFlagAa;
  if (h.truncated) flags |= kFlagTc;
  if (h.recursion_desired) flags |= kFlagRd;
  if (h.recursion_available) flags |= kFlagRa;
  flags |= static_cast<std::uint16_t>(static_cast<std::uint16_t>(h.rcode) & 0xF);
  return flags;
}

Header unpack_flags(std::uint16_t id, std::uint16_t flags) {
  Header h;
  h.id = id;
  h.is_response = (flags & kFlagQr) != 0;
  h.opcode = static_cast<Opcode>((flags >> 11) & 0xF);
  h.authoritative = (flags & kFlagAa) != 0;
  h.truncated = (flags & kFlagTc) != 0;
  h.recursion_desired = (flags & kFlagRd) != 0;
  h.recursion_available = (flags & kFlagRa) != 0;
  h.rcode = static_cast<Rcode>(flags & 0xF);
  return h;
}

void encode_record(const ResourceRecord& record, ByteWriter& writer,
                   DnsName::CompressionMap* compression) {
  record.name.encode(writer, compression);
  writer.u16(static_cast<std::uint16_t>(rdata_type(record.rdata, record.type)));
  writer.u16(static_cast<std::uint16_t>(record.rclass));
  writer.u32(record.ttl);
  const std::size_t rdlength_at = writer.size();
  writer.u16(0);  // backpatched below
  const std::size_t rdata_start = writer.size();
  encode_rdata(record.rdata, writer, compression);
  const std::size_t rdata_size = writer.size() - rdata_start;
  if (rdata_size > 0xFFFF) throw WireError{"RDATA longer than 65535 octets"};
  writer.patch_u16(rdlength_at, static_cast<std::uint16_t>(rdata_size));
}

void encode_option(std::uint16_t code, ByteWriter& writer, auto&& write_data) {
  writer.u16(code);
  const std::size_t optlen_at = writer.size();
  writer.u16(0);
  const std::size_t opt_start = writer.size();
  write_data();
  writer.patch_u16(optlen_at, static_cast<std::uint16_t>(writer.size() - opt_start));
}

void encode_opt_record(const EdnsRecord& edns, ByteWriter& writer) {
  // RFC 6891 §6.1.2: NAME = root, TYPE = OPT, CLASS = UDP payload size,
  // TTL = extended-rcode | version | DO | zeros.
  writer.u8(0);  // root name
  writer.u16(static_cast<std::uint16_t>(RecordType::OPT));
  writer.u16(edns.udp_payload_size);
  std::uint32_t ttl = (std::uint32_t{edns.extended_rcode} << 24) |
                      (std::uint32_t{edns.version} << 16);
  if (edns.dnssec_ok) ttl |= 0x8000;
  writer.u32(ttl);
  const std::size_t rdlength_at = writer.size();
  writer.u16(0);
  const std::size_t rdata_start = writer.size();
  const ClientSubnetOption* ecs = edns.client_subnet();
  const auto write_ecs = [&] {
    encode_option(static_cast<std::uint16_t>(OptionCode::client_subnet), writer,
                  [&] { ecs->encode_data(writer); });
  };
  for (std::size_t i = 0; i < edns.options.size(); ++i) {
    if (ecs != nullptr && edns.ecs_position() == i) write_ecs();
    encode_option(edns.options[i].code, writer, [&] { writer.bytes(edns.options[i].raw); });
  }
  if (ecs != nullptr && edns.ecs_position() >= edns.options.size()) write_ecs();
  writer.patch_u16(rdlength_at, static_cast<std::uint16_t>(writer.size() - rdata_start));
}

ResourceRecord decode_record(ByteReader& reader) {
  ResourceRecord record;
  record.name = DnsName::decode(reader);
  record.type = static_cast<RecordType>(reader.u16());
  record.rclass = static_cast<RecordClass>(reader.u16());
  record.ttl = reader.u32();
  const std::uint16_t rdlength = reader.u16();
  const std::size_t expected_end = reader.offset() + rdlength;
  record.rdata = decode_rdata(record.type, rdlength, reader);
  if (reader.offset() != expected_end) throw WireError{"RDATA over/under-read"};
  return record;
}

void decode_opt_record(ByteReader& reader, EdnsRecord& edns) {
  // Caller consumed the root name and TYPE; we parse from CLASS onward.
  edns.udp_payload_size = reader.u16();
  const std::uint32_t ttl = reader.u32();
  edns.extended_rcode = static_cast<std::uint8_t>(ttl >> 24);
  edns.version = static_cast<std::uint8_t>(ttl >> 16);
  edns.dnssec_ok = (ttl & 0x8000) != 0;
  if (edns.version != 0) throw WireError{"unsupported EDNS version"};
  const std::uint16_t rdlength = reader.u16();
  const std::size_t end = reader.offset() + rdlength;
  if (end > reader.buffer().size()) throw WireError{"OPT RDATA extends past message"};
  while (reader.offset() < end) {
    const std::uint16_t code = reader.u16();
    const std::uint16_t optlen = reader.u16();
    if (reader.offset() + optlen > end) throw WireError{"EDNS option extends past OPT RDATA"};
    const std::size_t data_start = reader.offset();
    if (code == static_cast<std::uint16_t>(OptionCode::client_subnet)) {
      const ClientSubnetOption ecs = ClientSubnetOption::decode_data(reader, optlen);
      if (edns.client_subnet() == nullptr) {
        edns.set_client_subnet(ecs);
        continue;
      }
      reader.seek(data_start);  // a repeated ECS option: valid, kept raw
    }
    const auto raw = reader.bytes(optlen);
    edns.options.push_back(EdnsOption{code, {raw.begin(), raw.end()}});
  }
}

}  // namespace

Message Message::make_query(std::uint16_t id, const DnsName& name, RecordType type,
                            std::optional<ClientSubnetOption> ecs) {
  Message query;
  query.header.id = id;
  query.header.recursion_desired = true;
  query.questions.push_back(Question{name, type, RecordClass::IN});
  if (ecs) {
    query.edns = EdnsRecord{};
    query.edns->set_client_subnet(*ecs);
  }
  return query;
}

Message Message::make_response(const Message& query) {
  Message response;
  response.start_response(query);
  return response;
}

void Message::clear() noexcept {
  header = Header{};
  questions.clear();
  answers.clear();
  authorities.clear();
  additionals.clear();
  edns.reset();
}

void Message::start_response(const Message& query) {
  clear();
  header = query.header;
  header.is_response = true;
  header.recursion_available = false;
  questions.assign(query.questions.begin(), query.questions.end());
  if (query.edns) {
    edns.emplace();
    edns->udp_payload_size = 4096;
  }
}

std::vector<net::IpAddr> Message::answer_addresses() const {
  std::vector<net::IpAddr> addresses;
  for (const ResourceRecord& record : answers) {
    if (const auto* a = std::get_if<ARecord>(&record.rdata)) {
      addresses.emplace_back(a->address);
    } else if (const auto* aaaa = std::get_if<AaaaRecord>(&record.rdata)) {
      addresses.emplace_back(aaaa->address);
    }
  }
  return addresses;
}

std::vector<std::uint8_t> Message::encode() const {
  std::vector<std::uint8_t> wire;
  encode_into(wire);
  return wire;
}

void Message::encode_into(std::vector<std::uint8_t>& out) const {
  out.clear();
  ByteWriter writer{out};
  DnsName::CompressionMap compression;

  writer.u16(header.id);
  writer.u16(pack_flags(header));
  writer.u16(static_cast<std::uint16_t>(questions.size()));
  writer.u16(static_cast<std::uint16_t>(answers.size()));
  writer.u16(static_cast<std::uint16_t>(authorities.size()));
  writer.u16(static_cast<std::uint16_t>(additionals.size() + (edns ? 1 : 0)));

  for (const Question& q : questions) {
    q.name.encode(writer, &compression);
    writer.u16(static_cast<std::uint16_t>(q.type));
    writer.u16(static_cast<std::uint16_t>(q.rclass));
  }
  for (const ResourceRecord& r : answers) encode_record(r, writer, &compression);
  for (const ResourceRecord& r : authorities) encode_record(r, writer, &compression);
  for (const ResourceRecord& r : additionals) encode_record(r, writer, &compression);
  if (edns) encode_opt_record(*edns, writer);
}

Message Message::decode(std::span<const std::uint8_t> wire) {
  Message message;
  decode_into(wire, message);
  return message;
}

void Message::decode_into(std::span<const std::uint8_t> wire, Message& message) {
  ByteReader reader{wire};
  message.clear();

  const std::uint16_t id = reader.u16();
  const std::uint16_t flags = reader.u16();
  message.header = unpack_flags(id, flags);
  const std::uint16_t qdcount = reader.u16();
  const std::uint16_t ancount = reader.u16();
  const std::uint16_t nscount = reader.u16();
  const std::uint16_t arcount = reader.u16();

  for (std::uint16_t i = 0; i < qdcount; ++i) {
    Question& q = message.questions.emplace_back();
    q.name = DnsName::decode(reader);
    q.type = static_cast<RecordType>(reader.u16());
    q.rclass = static_cast<RecordClass>(reader.u16());
  }
  for (std::uint16_t i = 0; i < ancount; ++i) message.answers.push_back(decode_record(reader));
  for (std::uint16_t i = 0; i < nscount; ++i) message.authorities.push_back(decode_record(reader));
  for (std::uint16_t i = 0; i < arcount; ++i) {
    // Peek for an OPT record: decode the owner name, then the type.
    const std::size_t record_start = reader.offset();
    const DnsName owner = DnsName::decode(reader);
    const auto type = static_cast<RecordType>(reader.u16());
    if (type == RecordType::OPT) {
      if (!owner.is_root()) throw WireError{"OPT record with non-root owner name"};
      if (message.edns) throw WireError{"duplicate OPT record"};
      decode_opt_record(reader, message.edns.emplace());
    } else {
      reader.seek(record_start);
      message.additionals.push_back(decode_record(reader));
    }
  }
  if (!reader.exhausted()) throw WireError{"trailing bytes after message"};
}

}  // namespace eum::dns
