// Fixed-point requantization: the integer epilogue of the deployed
// datapath.
//
// A fused conv/linear layer turns its integer accumulator directly into
// the next layer's activation code:
//
//   code = clamp( rne((acc·M + B) >> shift), 0, qmax )
//
// where M is an int32 multiplier approximating channel_scale/act_scale
// in 2^-shift steps, B the folded bias pre-scaled by 2^shift, and the
// shift rounds to nearest with ties to even (the usual fixed-point
// convention; hardware requantizers implement exactly this).  The
// parameters are picked once per channel at plan-finalize time
// (ccq::hw::make_requant) under static no-overflow bounds, so applying
// them is pure int64 arithmetic — associative, thread- and
// blocking-invariant, and therefore bit-identical between the fused
// igemm epilogue and the naive reference loop.
//
// This header is the *definition* of the requantized code; both the
// engine's serving path and its `forward_reference` oracle call
// `requant_apply` on exact accumulators, which is what makes the
// differential bit-identity tests meaningful.
#pragma once

#include <algorithm>
#include <cstdint>

namespace ccq {

/// Per-channel fixed-point requantization parameters.
/// Contract (established by ccq::hw::make_requant): for every reachable
/// accumulator value |acc| <= acc_bound,
///   |acc·multiplier| <= 2^61  and  |bias| <= 2^61,
/// so acc·multiplier + bias never overflows int64, and 1 <= shift <= 62.
struct Requant {
  std::int32_t multiplier = 0;
  std::int32_t shift = 1;
  std::int64_t bias = 0;
};

/// Arithmetic right shift by `shift` in [1, 62], rounding to nearest
/// with ties to even.  Implemented as floor-shift plus a carry when the
/// remainder exceeds half a ulp (or equals it and the floor result is
/// odd).  The carry is combined with bitwise, not short-circuit, logic:
/// it depends on the data, and inside the igemm epilogue a branch on it
/// mispredicts once inputs stop repeating (measured 1.5× slower on a
/// batch-16 conv).
inline std::int64_t rne_shift(std::int64_t v, std::int32_t shift) {
  const std::int64_t q = v >> shift;  // floor (arithmetic shift)
  const std::uint64_t rem =
      static_cast<std::uint64_t>(v) & ((std::uint64_t{1} << shift) - 1u);
  const std::uint64_t half = std::uint64_t{1} << (shift - 1);
  const bool odd = (static_cast<std::uint64_t>(q) & 1u) != 0;
  return q + static_cast<std::int64_t>((rem > half) | ((rem == half) & odd));
}

/// Requantize one exact accumulator into a code in [0, qmax].  This is
/// the single expression both the fused igemm epilogue and the naive
/// reference loop evaluate — the engine's bit-identity spec.
inline std::int32_t requant_apply(std::int64_t acc, const Requant& r,
                                  std::int32_t qmax) {
  const std::int64_t v = acc * static_cast<std::int64_t>(r.multiplier) + r.bias;
  const std::int64_t q = rne_shift(v, r.shift);
  return static_cast<std::int32_t>(
      std::clamp<std::int64_t>(q, 0, static_cast<std::int64_t>(qmax)));
}

}  // namespace ccq
