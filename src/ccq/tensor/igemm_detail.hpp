// Internal seam between the igemm dispatch layer (igemm.cpp) and its two
// vectorized microkernels (igemm_kernels.cpp, compiled with its own
// optimisation flags).  Every op reaching a kernel has u8 activation
// codes and int32 sums proven overflow-free by igemm_run.  Not installed
// API — include igemm.hpp instead.
#pragma once

#include <cstddef>
#include <cstdint>

#include "ccq/tensor/igemm.hpp"

namespace ccq::igemm_detail {

/// Dot-layout row padding (elements): depth is rounded up to a lane
/// multiple so the inner loops carry no scalar tail.  16 int16 lanes
/// covers SSE2 (8) and AVX2 (16); 32 8-bit lanes covers SSSE3 (16) and
/// AVX2 (32).  Padding zeros contribute zero products — exactness holds.
inline constexpr std::size_t kVec16Pad = 16;
inline constexpr std::size_t kPackedPad = 32;

inline constexpr std::size_t round_up(std::size_t n, std::size_t to) {
  return (n + to - 1) / to * to;
}

// ---- epilogue policies ------------------------------------------------------
// Every kernel finishes each output element by calling `store(idx, ch,
// acc)` on one of these: idx is the flat position in the m×n output, ch
// the epilogue channel (its column), acc the exact int32 sum.  Keeping
// the policy a template parameter lets the same microkernel bodies
// serve the float datapath and the fused requantizing one.

/// C[idx] = float(acc)·scale[ch] + bias[ch] — the training-parity
/// epilogue (identical expression to the naive engine loop).
struct FloatEpilogue {
  const float* scale;
  const float* bias;
  float* c;
  void store(std::size_t idx, std::size_t ch, std::int32_t acc) const {
    c[idx] = static_cast<float>(acc) * scale[ch] + bias[ch];
  }
};

/// out[idx] = requant_apply(acc, rq[ch], qmax) — the fused epilogue
/// writing the next layer's u8 activation codes directly (see
/// tensor/requant.hpp for why this is exact for any threading).
struct RequantEpilogue {
  const Requant* rq;
  std::uint8_t* out;
  std::int32_t qmax;
  void store(std::size_t idx, std::size_t ch, std::int32_t acc) const {
    out[idx] = static_cast<std::uint8_t>(requant_apply(acc, rq[ch], qmax));
  }
};

/// Invoke `f` with the op's epilogue policy object (igemm_run has
/// already validated that exactly one output target is set).
template <typename F>
void dispatch_epilogue(const IgemmOp& op, F&& f) {
  if (op.requant != nullptr) {
    f(RequantEpilogue{op.requant, op.out8, op.requant_qmax});
  } else {
    f(FloatEpilogue{op.epilogue.scale, op.epilogue.bias, op.c});
  }
}

/// Execute a validated vec16 / vec-packed op (igemm_run has already
/// checked panel/shape/lane type/eligibility): the register-tiled dot
/// loops over the caller's activation dot rows, parallel over rows.
void run_vec16(const IgemmOp& op, const ExecContext& ctx);
void run_vec_packed(const IgemmOp& op, const ExecContext& ctx);

/// True when this translation unit was compiled with 8-bit-lane SIMD
/// (SSSE3 maddubs or AVX2) — the build-level gate behind
/// `igemm_packed_simd`.
bool packed_simd();

}  // namespace ccq::igemm_detail
