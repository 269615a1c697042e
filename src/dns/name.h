// DNS domain names (RFC 1035 §3.1, §4.1.4).
//
// Names are sequences of labels; comparison is ASCII-case-insensitive.
// A name stores its lowercased, uncompressed wire form inline: RFC 1035
// caps a name at 255 octets, so a fixed array holds every valid name and
// copying, comparing and hashing one never allocates. Wire encoding
// supports message compression (suffix pointers); decoding is hardened
// against pointer loops and forward pointers.
#pragma once

#include <array>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "dns/wire.h"

namespace eum::dns {

class DnsName {
 public:
  /// RFC 1035 §3.1: a name is at most 255 octets on the wire.
  static constexpr std::size_t kMaxWireLength = 255;
  /// The longest presentation form: the wire form minus its first
  /// length octet and its root octet.
  static constexpr std::size_t kMaxTextLength = kMaxWireLength - 2;
  /// Room for any name's presentation form (see to_text()).
  using TextBuffer = std::array<char, kMaxTextLength>;

  /// The root name (zero labels).
  DnsName() = default;

  /// From presentation form, e.g. "foo.net" or "foo.net." (root suffix
  /// optional). Throws WireError on invalid labels (>63 octets, empty
  /// interior label) or a name longer than 255 wire octets.
  [[nodiscard]] static DnsName from_text(std::string_view text);

  /// From explicit labels (already validated presentation labels).
  [[nodiscard]] static DnsName from_labels(std::vector<std::string> labels);

  /// The labels, leftmost first, as views into the name.
  class Labels {
   public:
    class iterator {
     public:
      using value_type = std::string_view;
      using difference_type = std::ptrdiff_t;
      using iterator_category = std::forward_iterator_tag;

      iterator() = default;
      explicit iterator(const std::uint8_t* at) noexcept : at_(at) {}
      [[nodiscard]] std::string_view operator*() const noexcept {
        return {reinterpret_cast<const char*>(at_ + 1), *at_};
      }
      iterator& operator++() noexcept {
        at_ += 1 + *at_;
        return *this;
      }
      iterator operator++(int) noexcept {
        iterator before = *this;
        ++*this;
        return before;
      }
      friend bool operator==(const iterator&, const iterator&) noexcept = default;

     private:
      const std::uint8_t* at_ = nullptr;  ///< a label's length octet
    };

    explicit Labels(std::span<const std::uint8_t> wire) noexcept : wire_(wire) {}
    [[nodiscard]] iterator begin() const noexcept { return iterator{wire_.data()}; }
    /// The root octet ends the walk.
    [[nodiscard]] iterator end() const noexcept { return iterator{&wire_.back()}; }

   private:
    std::span<const std::uint8_t> wire_;
  };

  [[nodiscard]] bool is_root() const noexcept { return size_ == 1; }
  [[nodiscard]] std::size_t label_count() const noexcept;
  [[nodiscard]] Labels labels() const noexcept { return Labels{wire()}; }

  /// Wire-format length in octets (sum of label lengths + length bytes + root).
  [[nodiscard]] std::size_t wire_length() const noexcept { return size_; }

  /// The lowercased, uncompressed wire form, root octet included.
  [[nodiscard]] std::span<const std::uint8_t> wire() const noexcept {
    return {wire_.data(), size_};
  }

  /// True if this name equals `zone` or lies below it ("a.b.c" is in "b.c").
  [[nodiscard]] bool is_subdomain_of(const DnsName& zone) const noexcept;

  /// The name with the leftmost label removed. Precondition: !is_root().
  [[nodiscard]] DnsName parent() const;

  /// Prepend a label. Throws WireError if the result exceeds limits.
  [[nodiscard]] DnsName child(std::string_view label) const;

  /// Presentation form, lowercase, with no trailing dot ("" for the root).
  [[nodiscard]] std::string to_string() const;

  /// The same presentation form written into `buffer`, without
  /// allocating; the view is valid while `buffer` is.
  [[nodiscard]] std::string_view to_text(TextBuffer& buffer) const noexcept;

  /// Case-insensitive equality (labels are stored lowercased, so this
  /// compares bytes).
  friend bool operator==(const DnsName& a, const DnsName& b) noexcept;
  /// Label by label from the leftmost, each label compared as a string
  /// and a name ordered before any longer name it is a prefix of.
  friend std::strong_ordering operator<=>(const DnsName& a, const DnsName& b) noexcept;

  // --- wire format ---

  /// Offsets of the name suffixes already written to one message, for
  /// compression. A fixed table: a suffix is looked up by comparing it
  /// with the name written at each offset, following the pointers that
  /// name may end in. Once the table is full, later suffixes are written
  /// but not offered as pointer targets.
  class CompressionMap {
   public:
    static constexpr std::size_t kCapacity = 128;

   private:
    friend class DnsName;
    std::array<std::uint16_t, kCapacity> offsets_{};
    std::size_t count_ = 0;
  };

  /// Encode with compression: longest previously written suffix becomes a
  /// pointer; newly written suffixes are registered in `compression`.
  /// Pass nullptr to disable compression (e.g. inside unknown RDATA).
  void encode(ByteWriter& writer, CompressionMap* compression) const;

  /// Decode at the reader's position, following compression pointers.
  /// On return the reader is positioned after the name as it appeared
  /// in-line (pointers do not move the cursor past their target).
  [[nodiscard]] static DnsName decode(ByteReader& reader);

 private:
  /// Validate `label`, then append it lowercased before the root octet.
  void append_label(std::string_view label);

  std::uint8_t size_ = 1;                            ///< octets of wire_ in use
  std::array<std::uint8_t, kMaxWireLength> wire_{};  ///< length-prefixed labels, then 0
};

/// Hash for unordered containers (matches case-insensitive equality).
struct DnsNameHash {
  [[nodiscard]] std::size_t operator()(const DnsName& name) const noexcept;
};

}  // namespace eum::dns
