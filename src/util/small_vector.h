// A vector that holds its first N elements inline.
//
// The serve path's per-query address lists (a mapping decision's servers,
// a dynamic answer's addresses) have a small bound set by configuration,
// so they live in the object and a cache miss builds them without a heap
// allocation. Callers that go past N — hand-written handlers answering
// with dozens or thousands of records — move the whole list to the heap
// and keep working; the mapping path checks its bound at construction
// and never does.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <initializer_list>
#include <type_traits>
#include <utility>
#include <vector>

namespace eum::util {

template <typename T, std::size_t N>
class SmallVector {
  static_assert(std::is_trivially_copyable_v<T>, "SmallVector copies elements bytewise");

 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;

  SmallVector() = default;
  SmallVector(std::initializer_list<T> init) { assign(init.begin(), init.end()); }
  SmallVector& operator=(std::initializer_list<T> init) {
    assign(init.begin(), init.end());
    return *this;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  [[nodiscard]] T* data() noexcept { return spilled() ? heap_.data() : inline_.data(); }
  [[nodiscard]] const T* data() const noexcept {
    return spilled() ? heap_.data() : inline_.data();
  }
  [[nodiscard]] T* begin() noexcept { return data(); }
  [[nodiscard]] T* end() noexcept { return data() + size_; }
  [[nodiscard]] const T* begin() const noexcept { return data(); }
  [[nodiscard]] const T* end() const noexcept { return data() + size_; }
  [[nodiscard]] T& operator[](std::size_t i) noexcept { return data()[i]; }
  [[nodiscard]] const T& operator[](std::size_t i) const noexcept { return data()[i]; }

  void push_back(const T& value) {
    if (!spilled() && size_ < N) {
      inline_[size_++] = value;
      return;
    }
    if (!spilled()) heap_.assign(inline_.begin(), inline_.begin() + size_);
    heap_.push_back(value);
    ++size_;
  }

  template <typename... Args>
  T& emplace_back(Args&&... args) {
    push_back(T(std::forward<Args>(args)...));
    return data()[size_ - 1];
  }

  /// Back to inline storage; a spilled list gives its heap block back.
  void clear() noexcept {
    size_ = 0;
    heap_ = std::vector<T>{};
  }

  template <typename It>
  void assign(It first, It last) {
    clear();
    for (; first != last; ++first) push_back(*first);
  }

  void assign(std::size_t count, const T& value) {
    clear();
    for (std::size_t i = 0; i < count; ++i) push_back(value);
  }

 private:
  /// True once the elements moved to the heap (size went past N).
  [[nodiscard]] bool spilled() const noexcept { return !heap_.empty(); }

  std::size_t size_ = 0;
  std::array<T, N> inline_{};
  std::vector<T> heap_;  ///< every element once size_ went past N, else empty
};

template <typename T, std::size_t N, std::size_t M>
[[nodiscard]] bool operator==(const SmallVector<T, N>& a, const SmallVector<T, M>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

}  // namespace eum::util
