// Internal seam between the igemm dispatch layer (igemm.cpp) and the
// vectorized microkernels (igemm_kernels.cpp, compiled with its own
// optimisation flags).  Not installed API — include igemm.hpp instead.
#pragma once

#include <cstddef>

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
// the epilogue channel (its column).  Keeping the policy a template
// parameter lets the same microkernel bodies serve the float datapath
// and the fused requantizing one.

/// C[idx] = float(acc)·scale[ch] + bias[ch] — the training-parity
/// epilogue (identical expression to the naive engine loop).
struct FloatEpilogue {
  const float* scale;
  const float* bias;
  float* c;
  template <typename Acc>
  void store(std::size_t idx, std::size_t ch, Acc acc) const {
    c[idx] = static_cast<float>(acc) * scale[ch] + bias[ch];
  }
};

/// out[idx] = requant_apply(acc, rq[ch], qmax) — the fused epilogue
/// writing the next layer's activation codes directly (see
/// tensor/requant.hpp for why this is exact for any blocking/threading).
template <typename Out>
struct RequantEpilogue {
  const Requant* rq;
  Out* out;
  std::int32_t qmax;
  template <typename Acc>
  void store(std::size_t idx, std::size_t ch, Acc acc) const {
    out[idx] = static_cast<Out>(
        requant_apply(static_cast<std::int64_t>(acc), rq[ch], qmax));
  }
};

/// Invoke `f` with the op's epilogue policy object (igemm_run has
/// already validated that exactly one output target is set).
template <typename F>
void dispatch_epilogue(const IgemmOp& op, F&& f) {
  if (op.requant != nullptr) {
    if (op.out8 != nullptr) {
      f(RequantEpilogue<std::uint8_t>{op.requant, op.out8, op.requant_qmax});
    } else {
      f(RequantEpilogue<std::int16_t>{op.requant, op.out16, op.requant_qmax});
    }
  } else {
    f(FloatEpilogue{op.epilogue.scale, op.epilogue.bias, op.c});
  }
}

/// Invoke `f` with the op's typed activation-code pointer (u8 / i16 /
/// int32 — exactly one is set when k > 0; the int32 branch also covers
/// the degenerate k == 0 op with no codes at all).
template <typename F>
void with_x(const IgemmOp& op, F&& f) {
  if (op.x8 != nullptr) {
    f(op.x8);
  } else if (op.x16 != nullptr) {
    f(op.x16);
  } else {
    f(op.x);
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
