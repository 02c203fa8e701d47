// Tiny fixed-capacity inline vector for hot-path port lists (no heap).
#pragma once

#include <cassert>
#include <cstddef>
#include <memory>
#include <type_traits>

namespace dxbar {

/// The storage is left uninitialised: only [0, size()) is ever read, and
/// push_back constructs each slot as it fills.  A router step builds
/// several of these per cycle, most of them empty, so value-initialising
/// N flits up front would dominate an idle cycle.  Restricted to
/// trivially copyable, trivially destructible element types so that
/// copying the whole object and dropping elements on clear() are both
/// well defined.
template <typename T, std::size_t N>
class SmallVec {
  static_assert(std::is_trivially_copyable_v<T>,
                "SmallVec copies its storage bytewise");
  static_assert(std::is_trivially_destructible_v<T>,
                "SmallVec never destroys its elements");

 public:
  SmallVec() noexcept {}  // leaves data_ uninitialised on purpose

  void push_back(const T& v) {
    assert(size_ < N);
    std::construct_at(&data_[size_], v);
    ++size_;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] const T& operator[](std::size_t i) const {
    assert(i < size_);
    return data_[i];
  }
  [[nodiscard]] T& operator[](std::size_t i) {
    assert(i < size_);
    return data_[i];
  }
  [[nodiscard]] const T* begin() const noexcept { return data_; }
  [[nodiscard]] const T* end() const noexcept { return data_ + size_; }
  [[nodiscard]] T* begin() noexcept { return data_; }
  [[nodiscard]] T* end() noexcept { return data_ + size_; }
  void clear() noexcept { size_ = 0; }

  [[nodiscard]] bool contains(const T& v) const noexcept {
    for (std::size_t i = 0; i < size_; ++i) {
      if (data_[i] == v) return true;
    }
    return false;
  }

 private:
  union {
    T data_[N];
  };
  std::size_t size_ = 0;
};

/// Stable insertion sort for tiny ranges.  Used instead of std::sort on
/// SmallVec contents: the ranges never exceed a handful of elements and
/// std::sort's 16-element insertion threshold trips GCC's array-bounds
/// analysis on fixed-size storage.
template <typename T, std::size_t N, typename Less>
void insertion_sort(SmallVec<T, N>& v, Less less) {
  for (std::size_t i = 1; i < v.size(); ++i) {
    T key = v[i];
    std::size_t j = i;
    while (j > 0 && less(key, v[j - 1])) {
      v[j] = v[j - 1];
      --j;
    }
    v[j] = key;
  }
}

}  // namespace dxbar
