// Separable output-first switch allocator (Becker & Dally style) used by
// the generic buffered baseline routers.
//
// Stage 1: one arbiter per output port picks among the inputs requesting
// it.  Stage 2: one arbiter per input port picks among the outputs that
// granted it.  The result is a legal partial matching computed in a
// single cycle, possibly leaving some matchable pairs unmatched — the
// same quality/complexity trade-off real routers make.
//
// All state is fixed-width (at most kNumPorts inputs and outputs), so an
// allocation touches no heap.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "alloc/arbiter.hpp"
#include "common/types.hpp"

namespace dxbar {

class SeparableAllocator {
 public:
  /// Both dimensions must be at most kNumPorts.
  SeparableAllocator(int num_inputs, int num_outputs);

  /// `requests[i]` is the bitmask of outputs input i wants (one entry per
  /// input).  Returns for each input the granted output index or -1;
  /// entries at or beyond `num_inputs()` are -1.  Each output is granted
  /// to at most one input and vice versa.  A request vector with no bit
  /// set returns at once: it would move no arbiter pointer.
  [[nodiscard]] std::array<int, kNumPorts> allocate(
      std::span<const std::uint32_t> requests);

  [[nodiscard]] int num_inputs() const noexcept { return num_inputs_; }
  [[nodiscard]] int num_outputs() const noexcept { return num_outputs_; }

  // Snapshot protocol: both arbiter banks' priority pointers.
  template <class Self, class Ar>
  static void fields(Self& self, Ar& ar) {
    const auto outputs = static_cast<std::size_t>(self.num_outputs_);
    const auto inputs = static_cast<std::size_t>(self.num_inputs_);
    ar(std::span(self.output_arbiters_).first(outputs),
       std::span(self.input_arbiters_).first(inputs));
  }

 private:
  int num_inputs_;
  int num_outputs_;
  /// Stage 1, per output; only the first num_outputs_ are used.
  std::array<RoundRobinArbiter, kNumPorts> output_arbiters_;
  /// Stage 2, per input; only the first num_inputs_ are used.
  std::array<RoundRobinArbiter, kNumPorts> input_arbiters_;
};

}  // namespace dxbar
