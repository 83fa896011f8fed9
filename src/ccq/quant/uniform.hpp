// Core uniform quantization math shared by every policy.
//
// Paper Eq. (2): Q(z; N, α) maps values onto the N-bit grid C_α^N.  All
// policies in ccq::quant reduce to one of two grid shapes:
//   * unsigned:  k-bit levels {0, 1, …, 2^k−1} · α/(2^k−1)   (activations)
//   * symmetric: k-bit levels {−(2^(k−1)−1), …, +(2^(k−1)−1)} · step (weights)
// Quantization-aware training stores the *simulated* quantized value in
// float; the straight-through estimator lives in the weight hooks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ccq/tensor/tensor.hpp"

namespace ccq::quant {

/// Number of representable positive steps for a k-bit unsigned grid.
inline float unsigned_levels(int bits) {
  return static_cast<float>((1u << bits) - 1u);
}

/// Largest magnitude integer code of a symmetric k-bit grid (one code is
/// spent on the sign; zero is representable).
inline float symmetric_levels(int bits) {
  return static_cast<float>((1u << (bits - 1)) - 1u);
}

/// Quantize a value already normalised to [0, 1] onto the k-bit unsigned
/// grid (DoReFa's quantize_k).
float quantize_unit(float x, int bits);

/// Quantize `x` to the unsigned grid over [0, clip]; values are clipped.
float quantize_unsigned(float x, int bits, float clip);

/// Array form: y[i] = quantize_unsigned(x[i], bits, clip) for i < n, bit
/// for bit, in 4-lane vectors.  At 32 bits it is std::clamp(x, 0, clip)
/// (NaN passes through, −0 stays −0); below, clip·(round(clamp(x/clip,
/// 0, 1)·n)/n) with both divisions kept and round half away from zero
/// done exactly, without libm.  Below 32 bits a non-empty call checks
/// `clip > 0` once.  `y` may alias `x`.
void quantize_unsigned(const float* x, float* y, std::size_t n, int bits,
                       float clip);

/// Quantize `x` to the symmetric grid over [−clip, +clip].
float quantize_symmetric(float x, int bits, float clip);

/// Elementwise symmetric quantization of a tensor (bits ≥ 32 → copy).
Tensor quantize_symmetric(const Tensor& w, int bits, float clip);

/// Allocation-free variant: `dst` is resized (capacity-reusing) and
/// fully overwritten with the quantized values.
void quantize_symmetric_into(const Tensor& w, int bits, float clip,
                             Tensor& dst);

/// Mean-squared quantization error ‖w − Q(w)‖²/n for a symmetric grid —
/// paper Eq. (3)'s per-layer objective, used by calibrators and tests.
float quantization_mse(const Tensor& w, int bits, float clip);

/// The exact set of representable values of a symmetric k-bit grid with
/// the given clip (for property tests).
std::vector<float> symmetric_grid(int bits, float clip);

}  // namespace ccq::quant
