#include "ccq/quant/uniform.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "ccq/tensor/vec4.hpp"

namespace ccq::quant {

namespace {

using vec::splat;
using vec::v4;
using vec::vi4;

/// std::clamp lane by lane, spelled as libstdc++ spells it —
/// min(max(v, lo), hi) — so NaN passes through and −0 stays −0.
v4 clamp4(v4 v, v4 lo, v4 hi) {
  const v4 m = v < lo ? lo : v;
  return hi < m ? hi : m;
}

/// std::round (half away from zero) for lanes that are ≥ 0, −0 or NaN,
/// exactly: below 2^23 tf = trunc(t) and t − tf are exact, so tf + 1
/// when t − tf ≥ 0.5 is the rounded value, and t's sign bit carries −0
/// through; from 2^23 up every float is an integer, and NaN passes
/// through.  Only lanes below 2^23 are converted to int32.
v4 round_half_away(v4 t) {
  const vi4 small = t < splat(0x1p23f);
  const v4 tf = __builtin_convertvector(
      __builtin_convertvector(small ? t : v4{}, vi4), v4);
  const v4 r = tf + (t - tf >= splat(0.5f) ? splat(1.0f) : v4{});
  const vi4 sign = std::bit_cast<vi4>(t) & std::bit_cast<vi4>(splat(-0.0f));
  return small ? std::bit_cast<v4>(std::bit_cast<vi4>(r) | sign) : t;
}

/// y[i] = f(x[i]) for i < n, four lanes at a time.
template <typename F>
void map4(const float* x, float* y, std::size_t n, F f) {
  vec::for_blocks(n, [&](std::size_t i, std::size_t k) {
    vec::store4(y + i, f(vec::load4(x + i, k)), k);
  });
}

}  // namespace

float quantize_unit(float x, int bits) {
  CCQ_CHECK(bits >= 1 && bits < 32, "quantize_unit bits out of range");
  const float n = unsigned_levels(bits);
  const float clipped = std::clamp(x, 0.0f, 1.0f);
  return std::round(clipped * n) / n;
}

float quantize_unsigned(float x, int bits, float clip) {
  CCQ_CHECK(clip > 0.0f, "clip must be positive");
  if (bits >= 32) return std::clamp(x, 0.0f, clip);
  return clip * quantize_unit(x / clip, bits);
}

void quantize_unsigned(const float* x, float* y, std::size_t n, int bits,
                       float clip) {
  const v4 zero{}, hi = splat(clip);
  if (bits >= 32) {
    map4(x, y, n, [&](v4 v) { return clamp4(v, zero, hi); });
    return;
  }
  if (n == 0) return;
  CCQ_CHECK(clip > 0.0f, "clip must be positive");
  CCQ_CHECK(bits >= 1, "quantize_unit bits out of range");
  const v4 one = splat(1.0f), levels = splat(unsigned_levels(bits));
  map4(x, y, n, [&](v4 v) {
    const v4 unit = clamp4(v / hi, zero, one);
    return hi * (round_half_away(unit * levels) / levels);
  });
}

float quantize_symmetric(float x, int bits, float clip) {
  CCQ_CHECK(clip > 0.0f, "clip must be positive");
  if (bits >= 32) return std::clamp(x, -clip, clip);
  CCQ_CHECK(bits >= 2, "symmetric grid needs at least 2 bits");
  const float n = symmetric_levels(bits);
  const float step = clip / n;
  const float clipped = std::clamp(x, -clip, clip);
  return std::round(clipped / step) * step;
}

Tensor quantize_symmetric(const Tensor& w, int bits, float clip) {
  Tensor q = w;
  q.apply([bits, clip](float v) { return quantize_symmetric(v, bits, clip); });
  return q;
}

void quantize_symmetric_into(const Tensor& w, int bits, float clip,
                             Tensor& dst) {
  dst.resize(w.shape());
  auto wp = w.data();
  auto dp = dst.data();
  for (std::size_t i = 0; i < wp.size(); ++i) {
    dp[i] = quantize_symmetric(wp[i], bits, clip);
  }
}

float quantization_mse(const Tensor& w, int bits, float clip) {
  CCQ_CHECK(w.numel() > 0, "empty tensor");
  double acc = 0.0;
  for (float v : w.data()) {
    const float q = quantize_symmetric(v, bits, clip);
    acc += static_cast<double>(v - q) * (v - q);
  }
  return static_cast<float>(acc / static_cast<double>(w.numel()));
}

std::vector<float> symmetric_grid(int bits, float clip) {
  CCQ_CHECK(bits >= 2 && bits < 32, "grid bits out of range");
  const int n = static_cast<int>(symmetric_levels(bits));
  std::vector<float> grid;
  grid.reserve(static_cast<std::size_t>(2 * n + 1));
  const float step = clip / static_cast<float>(n);
  for (int i = -n; i <= n; ++i) {
    grid.push_back(static_cast<float>(i) * step);
  }
  return grid;
}

}  // namespace ccq::quant
