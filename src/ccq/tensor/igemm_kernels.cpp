// Vectorized igemm microkernels (vec16, vec-packed) — the engine's only
// MAC kernels.
//
// Both kernels compute C = X·Wᵀ with each output pixel's patch read in
// place from the op's zero-bordered channels-last u8 maps: `kernel` runs
// of kernel·C contiguous codes, one padded map row apart.  The weight
// side arrives pre-packed (IgemmPanel, igemm_pack) with every run
// zero-padded to a lane multiple, so the inner loop reads whole vectors
// of activation codes with no scalar tail; the lanes a vector reads past
// a run's end (the next codes of the map, or its tail slack) meet those
// zero weights.  Nothing is lowered or repacked per call.
//
// Exactness (what makes every lane sum provably overflow-free):
//   * vec16 — u8 codes widened to int16 in registers, then pmaddwd-shaped
//     int16×int16→int32 pairs.  Every real product lands in exactly one
//     int32 lane and every padding lane contributes 0, so
//     |lane| <= k·max|w|·max|x|, which igemm_run's precondition
//     (igemm_fits_int32) bounds by INT32_MAX.
//   * vec-packed — maddubs-shaped uint8×int8→int16 pairs, then widened
//     by pmaddwd against ones.  Eligibility requires
//     2·max|w|·x_bound <= 32767, so the saturating int16 intermediate
//     never saturates (a lane past a run's end has weight 0, whatever
//     code it reads); the int32 lane bound is the same subset argument.
// Integer adds are associative, so lane order, the run split and the
// four-channel fold cannot change the bits.
//
// This translation unit is compiled with elevated optimisation (see
// src/CMakeLists.txt) so vec16's portable fallback loop vectorizes; on
// x86 the SSE2 / SSSE3 / AVX2 intrinsic paths are selected by feature
// test macros at compile time.  vec-packed exists only with SSSE3 or
// AVX2: a portable 8-bit loop measured slower than vec16, so builds
// without 8-bit-lane SIMD make it ineligible instead.
#include "ccq/tensor/igemm_detail.hpp"

#include <cstdint>

#include "ccq/common/error.hpp"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif
#if defined(__SSSE3__)
#include <tmmintrin.h>
#endif
#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace ccq::igemm_detail {

namespace {

// ---- four-channel folds -----------------------------------------------------
// [Σa, Σb, Σc, Σd] of four int32 accumulators, stored to out[0..3]: one
// transpose and three adds instead of four horizontal sums.

#if defined(__AVX2__)
inline void fold4(__m256i a, __m256i b, __m256i c, __m256i d,
                  std::int32_t out[kTile]) {
  const __m256i s = _mm256_hadd_epi32(_mm256_hadd_epi32(a, b),
                                      _mm256_hadd_epi32(c, d));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out),
                   _mm_add_epi32(_mm256_castsi256_si128(s),
                                 _mm256_extracti128_si256(s, 1)));
}
#elif defined(__SSE2__)
inline void fold4(__m128i a, __m128i b, __m128i c, __m128i d,
                  std::int32_t out[kTile]) {
  // ab = [a0+a2, b0+b2, a1+a3, b1+b3], cd likewise.
  const __m128i ab = _mm_add_epi32(_mm_unpacklo_epi32(a, b),
                                   _mm_unpackhi_epi32(a, b));
  const __m128i cd = _mm_add_epi32(_mm_unpacklo_epi32(c, d),
                                   _mm_unpackhi_epi32(c, d));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out),
                   _mm_add_epi32(_mm_unpacklo_epi64(ab, cd),
                                 _mm_unpackhi_epi64(ab, cd)));
}
#endif

// ---- lane policies ----------------------------------------------------------
// One per kernel: `W` is the packed weight lane type, `kLanes` the codes
// one step reads (the panel's run padding), `load` fetches kLanes
// activation codes, and `mac` multiply-accumulates them against kLanes
// weights into the int32 lanes of an accumulator.

#if defined(__AVX2__)

struct Vec16 {
  using W = std::int16_t;
  static constexpr std::size_t kLanes = kVec16Lanes;
  static __m256i zero() { return _mm256_setzero_si256(); }
  static __m256i load(const std::uint8_t* x) {
    return _mm256_cvtepu8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(x)));
  }
  static __m256i mac(__m256i acc, __m256i xv, const W* w) {
    return _mm256_add_epi32(
        acc, _mm256_madd_epi16(
                 xv, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w))));
  }
};

struct VecPacked {
  using W = std::int8_t;
  static constexpr std::size_t kLanes = kPackedLanes;
  static __m256i zero() { return _mm256_setzero_si256(); }
  static __m256i load(const std::uint8_t* x) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x));
  }
  // maddubs takes (unsigned, signed) in that order.
  static __m256i mac(__m256i acc, __m256i xv, const W* w) {
    const __m256i pairs = _mm256_maddubs_epi16(
        xv, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w)));
    return _mm256_add_epi32(acc,
                            _mm256_madd_epi16(pairs, _mm256_set1_epi16(1)));
  }
};

constexpr bool kPackedSimd = true;

#elif defined(__SSE2__)

struct Vec16 {
  using W = std::int16_t;
  static constexpr std::size_t kLanes = kVec16Lanes;
  static __m128i zero() { return _mm_setzero_si128(); }
  static __m128i load(const std::uint8_t* x) {
    return _mm_unpacklo_epi8(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(x)),
        _mm_setzero_si128());
  }
  static __m128i mac(__m128i acc, __m128i xv, const W* w) {
    return _mm_add_epi32(
        acc, _mm_madd_epi16(
                 xv, _mm_loadu_si128(reinterpret_cast<const __m128i*>(w))));
  }
};

#if defined(__SSSE3__)
struct VecPacked {
  using W = std::int8_t;
  static constexpr std::size_t kLanes = kPackedLanes;
  static __m128i zero() { return _mm_setzero_si128(); }
  static __m128i load(const std::uint8_t* x) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(x));
  }
  // maddubs takes (unsigned, signed) in that order.
  static __m128i mac(__m128i acc, __m128i xv, const W* w) {
    const __m128i pairs = _mm_maddubs_epi16(
        xv, _mm_loadu_si128(reinterpret_cast<const __m128i*>(w)));
    return _mm_add_epi32(acc, _mm_madd_epi16(pairs, _mm_set1_epi16(1)));
  }
};

constexpr bool kPackedSimd = true;
#else
constexpr bool kPackedSimd = false;
#endif

#else  // portable widening-MAC loop; this TU's -O3 lets it vectorize

struct Vec16 {
  using W = std::int16_t;
  static constexpr std::size_t kLanes = kVec16Lanes;
  static std::int32_t zero() { return 0; }
  static const std::uint8_t* load(const std::uint8_t* x) { return x; }
  static std::int32_t mac(std::int32_t acc, const std::uint8_t* x,
                          const W* w) {
    for (std::size_t l = 0; l < kLanes; ++l) acc += std::int32_t{x[l]} * w[l];
    return acc;
  }
};

inline void fold4(std::int32_t a, std::int32_t b, std::int32_t c,
                  std::int32_t d, std::int32_t out[kTile]) {
  out[0] = a;
  out[1] = b;
  out[2] = c;
  out[3] = d;
}

constexpr bool kPackedSimd = false;

#endif

// ---- shared driver ----------------------------------------------------------

/// Output pixels per parallel_for chunk.
constexpr std::size_t kPixelGrain = 8;

/// Exact sums of one patch against four consecutive panel rows (`w` the
/// first, the others `wrow` lanes apart): `runs` runs, `pitch` codes
/// apart in the map, each read against its `rs`-lane packed run.  Each
/// activation vector is loaded once for the four channels.
template <typename L>
inline void tile4(const std::uint8_t* patch, std::size_t pitch,
                  std::size_t runs, std::size_t rs, const typename L::W* w,
                  std::size_t wrow, std::int32_t out[kTile]) {
  auto a0 = L::zero(), a1 = L::zero(), a2 = L::zero(), a3 = L::zero();
  for (std::size_t r = 0; r < runs; ++r, patch += pitch, w += rs) {
    for (std::size_t p = 0; p < rs; p += L::kLanes) {
      const auto xv = L::load(patch + p);
      a0 = L::mac(a0, xv, w + p);
      a1 = L::mac(a1, xv, w + wrow + p);
      a2 = L::mac(a2, xv, w + 2 * wrow + p);
      a3 = L::mac(a3, xv, w + 3 * wrow + p);
    }
  }
  fold4(a0, a1, a2, a3, out);
}

/// The conv driver both kernels share: output pixel (img, oy, ox) reads
/// its patch from the bordered input maps and writes channel j through
/// the epilogue at its position in the (out_pad-bordered) output map.
/// Parallel over output pixels in kPixelGrain chunks; four output
/// channels per tile (the panel's zero rows fill the last one).
template <typename L, typename Epi>
void run_patches(const IgemmOp& op, const typename L::W* w, const Epi& epi,
                 const ExecContext& ctx) {
  const ConvGeometry& g = op.geometry;
  const IgemmPanel& panel = *op.panel;
  const std::size_t c = g.in_channels, oh = g.out_h(), ow = g.out_w();
  const std::size_t pitch = (g.in_w + 2 * g.pad) * c;
  const std::size_t image = (g.in_h + 2 * g.pad) * pitch;
  const std::size_t n = panel.rows, q = op.out_pad;
  const std::size_t out_pitch = (ow + 2 * q) * n;
  const std::size_t out_image = (oh + 2 * q) * out_pitch;
  const std::size_t rs = panel.run_stride, wrow = panel.runs * rs;
  parallel_for(ctx, op.batch * oh * ow, kPixelGrain,
               [&](std::size_t i0, std::size_t i1) {
    std::size_t img = i0 / (oh * ow), oy = i0 / ow % oh, ox = i0 % ow;
    for (std::size_t i = i0; i < i1; ++i) {
      const std::uint8_t* patch =
          op.x + img * image + (oy * pitch + ox * c) * g.stride;
      const std::size_t out =
          img * out_image + (oy + q) * out_pitch + (ox + q) * n;
      for (std::size_t j = 0; j < n; j += kTile) {
        std::int32_t acc[kTile];
        tile4<L>(patch, pitch, panel.runs, rs, w + j * wrow, wrow, acc);
        if (j + kTile <= n) {  // a full tile: the store loop unrolls
          for (std::size_t t = 0; t < kTile; ++t) {
            epi.store(out + j + t, j + t, acc[t]);
          }
        } else {
          for (std::size_t t = 0; j + t < n; ++t) {
            epi.store(out + j + t, j + t, acc[t]);
          }
        }
      }
      if (++ox == ow) {
        ox = 0;
        if (++oy == oh) {
          oy = 0;
          ++img;
        }
      }
    }
  });
}

}  // namespace

bool packed_simd() { return kPackedSimd; }

void run_vec16(const IgemmOp& op, const ExecContext& ctx) {
  dispatch_epilogue(op, [&](const auto& epi) {
    run_patches<Vec16>(op, op.panel->i16.data(), epi, ctx);
  });
}

#if defined(__SSSE3__)
void run_vec_packed(const IgemmOp& op, const ExecContext& ctx) {
  dispatch_epilogue(op, [&](const auto& epi) {
    run_patches<VecPacked>(op, op.panel->i8.data(), epi, ctx);
  });
}
#else
void run_vec_packed(const IgemmOp& /*op*/, const ExecContext& /*ctx*/) {
  // Unreachable: igemm_run only executes eligible kernels.
  throw Error("igemm: vec-packed needs SSSE3 or AVX2, which this build "
              "lacks");
}
#endif

}  // namespace ccq::igemm_detail
