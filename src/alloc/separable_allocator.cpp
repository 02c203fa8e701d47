#include "alloc/separable_allocator.hpp"

#include <bit>
#include <cassert>

namespace dxbar {

SeparableAllocator::SeparableAllocator(int num_inputs, int num_outputs)
    : num_inputs_(num_inputs),
      num_outputs_(num_outputs),
      output_arbiters_(make_arbiter_bank<kNumPorts>(num_inputs)),
      input_arbiters_(make_arbiter_bank<kNumPorts>(num_outputs)) {
  assert(num_inputs >= 1 && num_inputs <= kNumPorts);
  assert(num_outputs >= 1 && num_outputs <= kNumPorts);
}

std::array<int, kNumPorts> SeparableAllocator::allocate(
    std::span<const std::uint32_t> requests) {
  assert(static_cast<int>(requests.size()) == num_inputs_);
  const std::uint32_t output_bits = (1u << num_outputs_) - 1u;
  std::array<int, kNumPorts> grant;
  grant.fill(-1);

  // No request: every arbiter would pick -1, so no pointer moves.  The
  // common case in a lightly loaded buffered router, whose inputs often
  // hold only this cycle's arrivals or heads not yet eligible.
  std::uint32_t any = 0;
  for (const std::uint32_t r : requests) any |= r;
  if ((any & output_bits) == 0) return grant;

  // Transpose: column o holds the inputs requesting output o.
  std::array<std::uint32_t, kNumPorts> requesters{};
  for (int i = 0; i < num_inputs_; ++i) {
    for (std::uint32_t m = requests[i] & output_bits; m != 0; m &= m - 1) {
      requesters[std::countr_zero(m)] |= 1u << i;
    }
  }

  // Stage 1: each output picks one requesting input; collect, per input,
  // the outputs that picked it.
  std::array<std::uint32_t, kNumPorts> won{};
  for (int o = 0; o < num_outputs_; ++o) {
    const int winner = output_arbiters_[o].pick(requesters[o]);
    if (winner >= 0) won[winner] |= 1u << o;
  }

  // Stage 2: each input picks one output that granted it.  Advance only
  // the arbiters whose grants were actually consumed, so unmatched
  // requesters keep their priority (work-conserving rotation).
  for (int i = 0; i < num_inputs_; ++i) {
    const int o = input_arbiters_[i].pick(won[i]);
    if (o < 0) continue;
    grant[i] = o;
    input_arbiters_[i].grant(1u << o);
    output_arbiters_[o].grant(1u << i);
  }
  return grant;
}

}  // namespace dxbar
