#include "dns/name.h"

#include <algorithm>
#include <cstring>
#include <optional>

#include "util/hash.h"

namespace eum::dns {

namespace {

constexpr std::size_t kMaxLabelLength = 63;
constexpr std::uint8_t kPointerTag = 0xC0;

void validate_label(std::string_view label) {
  if (label.empty()) throw WireError{"empty DNS label"};
  if (label.size() > kMaxLabelLength) throw WireError{"DNS label longer than 63 octets"};
}

/// ASCII lowercase copy (the "C" locale's tolower; DNS case folding
/// covers ASCII letters only).
void copy_lower(const char* from, std::size_t n, std::uint8_t* to) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    const auto c = static_cast<std::uint8_t>(from[i]);
    to[i] = (c >= 'A' && c <= 'Z') ? static_cast<std::uint8_t>(c + ('a' - 'A')) : c;
  }
}

/// Does the name written at `offset` of `message` equal the wire-form
/// suffix starting at `suffix`? Names in `message` are ones this encoder
/// wrote: lowercased labels, possibly ending in a backward pointer.
bool written_name_equals(const std::vector<std::uint8_t>& message, std::size_t offset,
                         const std::uint8_t* suffix) noexcept {
  for (int hops = 0; hops <= 127;) {
    const std::uint8_t length = message[offset];
    if ((length & kPointerTag) == kPointerTag) {
      offset = (static_cast<std::size_t>(length & 0x3F) << 8) | message[offset + 1];
      ++hops;
      continue;
    }
    if (length != *suffix) return false;
    if (length == 0) return true;
    if (std::memcmp(message.data() + offset + 1, suffix + 1, length) != 0) return false;
    offset += 1u + length;
    suffix += 1u + length;
  }
  return false;
}

}  // namespace

void DnsName::append_label(std::string_view label) {
  validate_label(label);
  if (size_ + 1 + label.size() > kMaxWireLength) {
    throw WireError{"DNS name longer than 255 octets"};
  }
  const std::size_t at = size_ - 1u;  // the root octet moves behind the label
  wire_[at] = static_cast<std::uint8_t>(label.size());
  copy_lower(label.data(), label.size(), wire_.data() + at + 1);
  wire_[at + 1 + label.size()] = 0;
  size_ = static_cast<std::uint8_t>(size_ + 1 + label.size());
}

DnsName DnsName::from_text(std::string_view text) {
  DnsName name;
  if (text.empty() || text == ".") return name;
  if (text.back() == '.') text.remove_suffix(1);
  while (true) {
    const std::size_t dot = text.find('.');
    name.append_label(text.substr(0, dot));
    if (dot == std::string_view::npos) return name;
    text.remove_prefix(dot + 1);
  }
}

DnsName DnsName::from_labels(std::vector<std::string> labels) {
  DnsName name;
  for (const std::string& label : labels) name.append_label(label);
  return name;
}

std::size_t DnsName::label_count() const noexcept {
  const Labels view = labels();
  return static_cast<std::size_t>(std::distance(view.begin(), view.end()));
}

bool DnsName::is_subdomain_of(const DnsName& zone) const noexcept {
  // Step over leading labels until the rest is no longer than the zone;
  // it is the zone's suffix only if it then has the zone's exact length.
  const std::uint8_t* at = wire_.data();
  std::size_t rest = size_;
  while (rest > zone.size_) {
    rest -= 1u + *at;
    at += 1u + *at;
  }
  return rest == zone.size_ && std::memcmp(at, zone.wire_.data(), rest) == 0;
}

DnsName DnsName::parent() const {
  if (is_root()) throw WireError{"parent of root name"};
  DnsName result;
  const std::size_t skip = 1u + wire_[0];
  result.size_ = static_cast<std::uint8_t>(size_ - skip);
  std::memcpy(result.wire_.data(), wire_.data() + skip, result.size_);
  return result;
}

DnsName DnsName::child(std::string_view label) const {
  validate_label(label);
  if (size_ + 1 + label.size() > kMaxWireLength) {
    throw WireError{"DNS name longer than 255 octets"};
  }
  DnsName result;
  result.wire_[0] = static_cast<std::uint8_t>(label.size());
  copy_lower(label.data(), label.size(), result.wire_.data() + 1);
  std::memcpy(result.wire_.data() + 1 + label.size(), wire_.data(), size_);
  result.size_ = static_cast<std::uint8_t>(size_ + 1 + label.size());
  return result;
}

std::string_view DnsName::to_text(TextBuffer& buffer) const noexcept {
  std::size_t n = 0;
  for (const std::string_view label : labels()) {
    if (n != 0) buffer[n++] = '.';
    std::memcpy(buffer.data() + n, label.data(), label.size());
    n += label.size();
  }
  return {buffer.data(), n};
}

std::string DnsName::to_string() const {
  TextBuffer buffer;
  return std::string{to_text(buffer)};
}

bool operator==(const DnsName& a, const DnsName& b) noexcept {
  return a.size_ == b.size_ && std::memcmp(a.wire_.data(), b.wire_.data(), a.size_) == 0;
}

std::strong_ordering operator<=>(const DnsName& a, const DnsName& b) noexcept {
  const std::uint8_t* p = a.wire_.data();
  const std::uint8_t* q = b.wire_.data();
  while (*p != 0 && *q != 0) {
    if (const int c = std::memcmp(p + 1, q + 1, std::min(*p, *q)); c != 0) return c <=> 0;
    if (*p != *q) return *p <=> *q;
    p += 1u + *p;
    q += 1u + *q;
  }
  return (*p != 0) <=> (*q != 0);  // the name that ran out of labels first sorts first
}

void DnsName::encode(ByteWriter& writer, CompressionMap* compression) const {
  // Walk suffixes from the full name down: emit labels until a suffix was
  // already written, then emit a pointer to it. Only names written before
  // this one can match: this name's own suffixes, registered as it is
  // written, are longer than any later suffix of it and not terminated
  // yet, so comparing against them would read past the written bytes.
  const std::size_t written = compression != nullptr ? compression->count_ : 0;
  for (const std::uint8_t* label = wire_.data(); *label != 0; label += 1u + *label) {
    if (compression != nullptr) {
      const std::uint16_t* const begin = compression->offsets_.data();
      const std::uint16_t* const end = begin + written;
      const auto found = std::find_if(begin, end, [&](std::uint16_t offset) {
        return written_name_equals(writer.buffer(), offset, label);
      });
      if (found != end) {
        writer.u16(static_cast<std::uint16_t>(0xC000 | *found));
        return;
      }
      // Pointers can only address the first 16KiB-ish of the message
      // (14-bit offset); don't register suffixes beyond that.
      if (writer.size() <= 0x3FFF && compression->count_ < CompressionMap::kCapacity) {
        compression->offsets_[compression->count_++] = static_cast<std::uint16_t>(writer.size());
      }
    }
    writer.bytes({label, 1u + *label});
  }
  writer.u8(0);  // root label terminator
}

DnsName DnsName::decode(ByteReader& reader) {
  DnsName name;
  // After the first pointer, the cursor must stay where the in-line name
  // ended; we remember that position and restore it at the end.
  std::optional<std::size_t> resume_offset;
  int pointer_hops = 0;
  while (true) {
    const std::uint8_t length = reader.u8();
    if ((length & kPointerTag) == kPointerTag) {
      const std::uint8_t low = reader.u8();
      const std::size_t target =
          (static_cast<std::size_t>(length & 0x3F) << 8) | low;
      // Pointers must reference earlier message content; strictly-backward
      // targets guarantee termination, with a hop cap as belt and braces.
      const std::size_t pointer_pos = reader.offset() - 2;
      if (target >= pointer_pos) throw WireError{"forward compression pointer"};
      if (!resume_offset) resume_offset = reader.offset();
      if (++pointer_hops > 32) throw WireError{"compression pointer loop"};
      reader.seek(target);
      continue;
    }
    if ((length & kPointerTag) != 0) throw WireError{"reserved label type"};
    if (length == 0) break;
    if (length > kMaxLabelLength) throw WireError{"DNS label longer than 63 octets"};
    const auto raw = reader.bytes(length);
    name.append_label({reinterpret_cast<const char*>(raw.data()), raw.size()});
  }
  if (resume_offset) reader.seek(*resume_offset);
  return name;
}

std::size_t DnsNameHash::operator()(const DnsName& name) const noexcept {
  std::uint64_t hash = 0x9ae16a3b2f90404fULL;
  for (const std::string_view label : name.labels()) {
    hash = util::hash_combine(hash, util::fnv1a64(label));
  }
  return static_cast<std::size_t>(hash);
}

}  // namespace eum::dns
