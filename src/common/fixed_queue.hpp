// Fixed-capacity ring-buffer FIFO used for router input buffers and
// source queues.  No heap allocation after construction; overflow and
// underflow are programming errors and assert in debug builds.
#pragma once

#include <cassert>
#include <cstddef>
#include <optional>
#include <vector>

namespace dxbar {

template <typename T>
class FixedQueue {
 public:
  using value_type = T;

  explicit FixedQueue(std::size_t capacity)
      : slots_(capacity == 0 ? 1 : capacity) {}

  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] bool full() const noexcept { return size_ == slots_.size(); }

  /// Append to the tail.  Pushing to a full queue is a programming
  /// error: it asserts in debug builds, and in release builds returns
  /// false without dropping anything (so a missed caller check degrades
  /// to back-pressure, not silent truncation).  Callers that probe for
  /// space as part of normal control flow use try_push instead.
  bool push(T value) {
    assert(!full() && "push to full FixedQueue");
    return try_push(std::move(value));
  }

  /// Append to the tail if space remains; returns false when full.
  bool try_push(T value) {
    if (full()) return false;
    slots_[(head_ + size_) % slots_.size()] = std::move(value);
    ++size_;
    return true;
  }

  /// The element at the head; queue must be non-empty.
  [[nodiscard]] const T& front() const {
    assert(!empty());
    return slots_[head_];
  }

  [[nodiscard]] T& front() {
    assert(!empty());
    return slots_[head_];
  }

  /// Remove and return the head element; queue must be non-empty.
  T pop() {
    assert(!empty());
    T out = std::move(slots_[head_]);
    head_ = (head_ + 1) % slots_.size();
    --size_;
    return out;
  }

  /// Element i positions behind the head (0 == front).
  [[nodiscard]] const T& at(std::size_t i) const {
    assert(i < size_);
    return slots_[(head_ + i) % slots_.size()];
  }

  void clear() noexcept {
    head_ = 0;
    size_ = 0;
  }

 private:
  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace dxbar
