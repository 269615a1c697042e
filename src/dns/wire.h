// Bounds-checked binary readers/writers for DNS wire format.
//
// All multi-byte integers in DNS are big-endian (network order). The
// reader throws `WireError` on any attempt to read past the end — DNS
// messages arrive from the network and must never be trusted.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace eum::dns {

/// Raised on malformed or truncated wire data.
class WireError : public std::runtime_error {
 public:
  explicit WireError(const std::string& what) : std::runtime_error(what) {}
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) noexcept : data_(data) {}

  [[nodiscard]] std::size_t offset() const noexcept { return offset_; }
  [[nodiscard]] std::size_t remaining() const noexcept { return data_.size() - offset_; }
  [[nodiscard]] bool exhausted() const noexcept { return offset_ == data_.size(); }
  [[nodiscard]] std::span<const std::uint8_t> buffer() const noexcept { return data_; }

  /// Reposition (used to follow DNS compression pointers).
  void seek(std::size_t offset) {
    if (offset > data_.size()) throw WireError{"seek past end of message"};
    offset_ = offset;
  }

  [[nodiscard]] std::uint8_t u8() {
    require(1);
    return data_[offset_++];
  }

  [[nodiscard]] std::uint16_t u16() {
    require(2);
    const std::uint16_t hi = data_[offset_];
    const std::uint16_t lo = data_[offset_ + 1];
    offset_ += 2;
    return static_cast<std::uint16_t>((hi << 8) | lo);
  }

  [[nodiscard]] std::uint32_t u32() {
    require(4);
    std::uint32_t value = 0;
    for (int i = 0; i < 4; ++i) value = (value << 8) | data_[offset_ + static_cast<std::size_t>(i)];
    offset_ += 4;
    return value;
  }

  [[nodiscard]] std::span<const std::uint8_t> bytes(std::size_t n) {
    require(n);
    const auto view = data_.subspan(offset_, n);
    offset_ += n;
    return view;
  }

 private:
  void require(std::size_t n) const {
    if (remaining() < n) throw WireError{"truncated message"};
  }

  std::span<const std::uint8_t> data_;
  std::size_t offset_ = 0;
};

/// Appends big-endian fields to a byte buffer: its own, or the caller's
/// (so a serve loop can encode into one buffer and keep its capacity).
class ByteWriter {
 public:
  ByteWriter() noexcept : buffer_(&own_) {}
  /// Append to `out`, which must outlive the writer.
  explicit ByteWriter(std::vector<std::uint8_t>& out) noexcept : buffer_(&out) {}

  ByteWriter(const ByteWriter&) = delete;
  ByteWriter& operator=(const ByteWriter&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return buffer_->size(); }
  [[nodiscard]] const std::vector<std::uint8_t>& buffer() const noexcept { return *buffer_; }
  [[nodiscard]] std::vector<std::uint8_t> take() noexcept { return std::move(*buffer_); }

  void u8(std::uint8_t value) { buffer_->push_back(value); }

  void u16(std::uint16_t value) {
    buffer_->push_back(static_cast<std::uint8_t>(value >> 8));
    buffer_->push_back(static_cast<std::uint8_t>(value));
  }

  void u32(std::uint32_t value) {
    for (int shift = 24; shift >= 0; shift -= 8) {
      buffer_->push_back(static_cast<std::uint8_t>(value >> shift));
    }
  }

  void bytes(std::span<const std::uint8_t> data) {
    buffer_->insert(buffer_->end(), data.begin(), data.end());
  }

  /// Overwrite a previously written 16-bit field (e.g. RDLENGTH backpatch).
  void patch_u16(std::size_t offset, std::uint16_t value) {
    if (offset + 2 > buffer_->size()) throw WireError{"patch_u16 out of range"};
    (*buffer_)[offset] = static_cast<std::uint8_t>(value >> 8);
    (*buffer_)[offset + 1] = static_cast<std::uint8_t>(value);
  }

 private:
  std::vector<std::uint8_t> own_;
  std::vector<std::uint8_t>* buffer_;
};

}  // namespace eum::dns
