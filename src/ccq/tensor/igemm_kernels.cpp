// Vectorized igemm microkernels (vec16, vec-packed) — the engine's only
// MAC kernels.
//
// Both kernels compute C = X·Wᵀ over dot-layout rows: every operand row
// is depth-contiguous and `stride` lanes long (the weight rows zero-
// padded to a lane multiple), so the inner loops are pure widening
// multiply-accumulate with no scalar tail.  The weight side arrives
// pre-packed (IgemmPanel, igemm_pack); the activation rows arrive in the
// kernel's lane type straight from the caller's lowering (hw's
// channels-last `im2row` of u8 codes), so nothing is repacked here.
//
// Exactness (what makes every lane sum provably overflow-free):
//   * vec16 — pmaddwd-shaped int16×int16→int32 pairs.  Each int32 lane
//     accumulates at most ⌈k/2⌉ pair sums of magnitude <= 2·|w|·|x|, so
//     |lane| <= k·max|w|·max|x|, which igemm_run's precondition
//     (igemm_fits_int32) bounds by INT32_MAX.
//   * vec-packed — maddubs-shaped uint8×int8→int16 pairs, then widened
//     by pmaddwd against ones.  Eligibility requires
//     2·max|w|·x_bound <= 32767, so the saturating int16 intermediate
//     never saturates; the int32 lane bound is the same subset argument.
// Padding zeros contribute zero products.  Integer adds are associative,
// so lane order / horizontal reduction order cannot change the bits.
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

// ---- horizontal sums --------------------------------------------------------

#if defined(__SSE2__)
inline std::int32_t hsum_epi32(__m128i v) {
  v = _mm_add_epi32(v, _mm_shuffle_epi32(v, _MM_SHUFFLE(1, 0, 3, 2)));
  v = _mm_add_epi32(v, _mm_shuffle_epi32(v, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtsi128_si32(v);
}
#endif

#if defined(__AVX2__)
inline std::int32_t hsum_epi32(__m256i v) {
  return hsum_epi32(_mm_add_epi32(_mm256_castsi256_si128(v),
                                  _mm256_extracti128_si256(v, 1)));
}
#endif

// ---- vec16 dot products (int16 × int16 → int32) -----------------------------
// dot4 amortises the shared-row loads over four opposing rows — the
// register tiling that turns the dot kernel from load-bound to MAC-bound.

#if defined(__AVX2__)

inline void dot4(const std::int16_t* a, const std::int16_t* b0,
                 const std::int16_t* b1, const std::int16_t* b2,
                 const std::int16_t* b3, std::size_t kp,
                 std::int32_t out[4]) {
  __m256i acc0 = _mm256_setzero_si256(), acc1 = _mm256_setzero_si256();
  __m256i acc2 = _mm256_setzero_si256(), acc3 = _mm256_setzero_si256();
  for (std::size_t p = 0; p < kp; p += 16) {
    const __m256i av =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + p));
    acc0 = _mm256_add_epi32(
        acc0, _mm256_madd_epi16(
                  av, _mm256_loadu_si256(
                          reinterpret_cast<const __m256i*>(b0 + p))));
    acc1 = _mm256_add_epi32(
        acc1, _mm256_madd_epi16(
                  av, _mm256_loadu_si256(
                          reinterpret_cast<const __m256i*>(b1 + p))));
    acc2 = _mm256_add_epi32(
        acc2, _mm256_madd_epi16(
                  av, _mm256_loadu_si256(
                          reinterpret_cast<const __m256i*>(b2 + p))));
    acc3 = _mm256_add_epi32(
        acc3, _mm256_madd_epi16(
                  av, _mm256_loadu_si256(
                          reinterpret_cast<const __m256i*>(b3 + p))));
  }
  out[0] = hsum_epi32(acc0);
  out[1] = hsum_epi32(acc1);
  out[2] = hsum_epi32(acc2);
  out[3] = hsum_epi32(acc3);
}

inline std::int32_t dot1(const std::int16_t* a, const std::int16_t* b,
                         std::size_t kp) {
  __m256i acc = _mm256_setzero_si256();
  for (std::size_t p = 0; p < kp; p += 16) {
    acc = _mm256_add_epi32(
        acc, _mm256_madd_epi16(
                 _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + p)),
                 _mm256_loadu_si256(
                     reinterpret_cast<const __m256i*>(b + p))));
  }
  return hsum_epi32(acc);
}

#elif defined(__SSE2__)

inline void dot4(const std::int16_t* a, const std::int16_t* b0,
                 const std::int16_t* b1, const std::int16_t* b2,
                 const std::int16_t* b3, std::size_t kp,
                 std::int32_t out[4]) {
  __m128i acc0 = _mm_setzero_si128(), acc1 = _mm_setzero_si128();
  __m128i acc2 = _mm_setzero_si128(), acc3 = _mm_setzero_si128();
  for (std::size_t p = 0; p < kp; p += 8) {
    const __m128i av =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + p));
    acc0 = _mm_add_epi32(
        acc0, _mm_madd_epi16(av, _mm_loadu_si128(
                                     reinterpret_cast<const __m128i*>(b0 + p))));
    acc1 = _mm_add_epi32(
        acc1, _mm_madd_epi16(av, _mm_loadu_si128(
                                     reinterpret_cast<const __m128i*>(b1 + p))));
    acc2 = _mm_add_epi32(
        acc2, _mm_madd_epi16(av, _mm_loadu_si128(
                                     reinterpret_cast<const __m128i*>(b2 + p))));
    acc3 = _mm_add_epi32(
        acc3, _mm_madd_epi16(av, _mm_loadu_si128(
                                     reinterpret_cast<const __m128i*>(b3 + p))));
  }
  out[0] = hsum_epi32(acc0);
  out[1] = hsum_epi32(acc1);
  out[2] = hsum_epi32(acc2);
  out[3] = hsum_epi32(acc3);
}

inline std::int32_t dot1(const std::int16_t* a, const std::int16_t* b,
                         std::size_t kp) {
  __m128i acc = _mm_setzero_si128();
  for (std::size_t p = 0; p < kp; p += 8) {
    acc = _mm_add_epi32(
        acc, _mm_madd_epi16(
                 _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + p)),
                 _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + p))));
  }
  return hsum_epi32(acc);
}

#else  // portable widening-MAC loops; this TU's -O3 lets them vectorize

inline void dot4(const std::int16_t* a, const std::int16_t* b0,
                 const std::int16_t* b1, const std::int16_t* b2,
                 const std::int16_t* b3, std::size_t kp,
                 std::int32_t out[4]) {
  std::int32_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  for (std::size_t p = 0; p < kp; ++p) {
    const std::int32_t av = a[p];
    s0 += av * b0[p];
    s1 += av * b1[p];
    s2 += av * b2[p];
    s3 += av * b3[p];
  }
  out[0] = s0;
  out[1] = s1;
  out[2] = s2;
  out[3] = s3;
}

inline std::int32_t dot1(const std::int16_t* a, const std::int16_t* b,
                         std::size_t kp) {
  std::int32_t s = 0;
  for (std::size_t p = 0; p < kp; ++p) s += std::int32_t{a[p]} * b[p];
  return s;
}

#endif

// ---- vec-packed dot products (uint8 × int8 → int32) -------------------------
// One activation row (u8, shared) against four weight rows (i8).
// maddubs takes (unsigned, signed) in that order.

#if defined(__AVX2__)

inline __m256i madd_u8s8(__m256i xv, __m256i wv, __m256i ones) {
  return _mm256_madd_epi16(_mm256_maddubs_epi16(xv, wv), ones);
}

inline void dot4(const std::uint8_t* x, const std::int8_t* w0,
                 const std::int8_t* w1, const std::int8_t* w2,
                 const std::int8_t* w3, std::size_t kp, std::int32_t out[4]) {
  const __m256i ones = _mm256_set1_epi16(1);
  __m256i acc0 = _mm256_setzero_si256(), acc1 = _mm256_setzero_si256();
  __m256i acc2 = _mm256_setzero_si256(), acc3 = _mm256_setzero_si256();
  for (std::size_t p = 0; p < kp; p += 32) {
    const __m256i xv =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + p));
    acc0 = _mm256_add_epi32(
        acc0, madd_u8s8(xv,
                        _mm256_loadu_si256(
                            reinterpret_cast<const __m256i*>(w0 + p)),
                        ones));
    acc1 = _mm256_add_epi32(
        acc1, madd_u8s8(xv,
                        _mm256_loadu_si256(
                            reinterpret_cast<const __m256i*>(w1 + p)),
                        ones));
    acc2 = _mm256_add_epi32(
        acc2, madd_u8s8(xv,
                        _mm256_loadu_si256(
                            reinterpret_cast<const __m256i*>(w2 + p)),
                        ones));
    acc3 = _mm256_add_epi32(
        acc3, madd_u8s8(xv,
                        _mm256_loadu_si256(
                            reinterpret_cast<const __m256i*>(w3 + p)),
                        ones));
  }
  out[0] = hsum_epi32(acc0);
  out[1] = hsum_epi32(acc1);
  out[2] = hsum_epi32(acc2);
  out[3] = hsum_epi32(acc3);
}

inline std::int32_t dot1(const std::uint8_t* x, const std::int8_t* w,
                         std::size_t kp) {
  const __m256i ones = _mm256_set1_epi16(1);
  __m256i acc = _mm256_setzero_si256();
  for (std::size_t p = 0; p < kp; p += 32) {
    acc = _mm256_add_epi32(
        acc,
        madd_u8s8(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + p)),
                  _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w + p)),
                  ones));
  }
  return hsum_epi32(acc);
}

constexpr bool kPackedSimd = true;

#elif defined(__SSSE3__)

inline __m128i madd_u8s8(__m128i xv, __m128i wv, __m128i ones) {
  return _mm_madd_epi16(_mm_maddubs_epi16(xv, wv), ones);
}

inline void dot4(const std::uint8_t* x, const std::int8_t* w0,
                 const std::int8_t* w1, const std::int8_t* w2,
                 const std::int8_t* w3, std::size_t kp, std::int32_t out[4]) {
  const __m128i ones = _mm_set1_epi16(1);
  __m128i acc0 = _mm_setzero_si128(), acc1 = _mm_setzero_si128();
  __m128i acc2 = _mm_setzero_si128(), acc3 = _mm_setzero_si128();
  for (std::size_t p = 0; p < kp; p += 16) {
    const __m128i xv =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(x + p));
    acc0 = _mm_add_epi32(
        acc0, madd_u8s8(xv,
                        _mm_loadu_si128(
                            reinterpret_cast<const __m128i*>(w0 + p)),
                        ones));
    acc1 = _mm_add_epi32(
        acc1, madd_u8s8(xv,
                        _mm_loadu_si128(
                            reinterpret_cast<const __m128i*>(w1 + p)),
                        ones));
    acc2 = _mm_add_epi32(
        acc2, madd_u8s8(xv,
                        _mm_loadu_si128(
                            reinterpret_cast<const __m128i*>(w2 + p)),
                        ones));
    acc3 = _mm_add_epi32(
        acc3, madd_u8s8(xv,
                        _mm_loadu_si128(
                            reinterpret_cast<const __m128i*>(w3 + p)),
                        ones));
  }
  out[0] = hsum_epi32(acc0);
  out[1] = hsum_epi32(acc1);
  out[2] = hsum_epi32(acc2);
  out[3] = hsum_epi32(acc3);
}

inline std::int32_t dot1(const std::uint8_t* x, const std::int8_t* w,
                         std::size_t kp) {
  const __m128i ones = _mm_set1_epi16(1);
  __m128i acc = _mm_setzero_si128();
  for (std::size_t p = 0; p < kp; p += 16) {
    acc = _mm_add_epi32(
        acc, madd_u8s8(_mm_loadu_si128(reinterpret_cast<const __m128i*>(x + p)),
                       _mm_loadu_si128(reinterpret_cast<const __m128i*>(w + p)),
                       ones));
  }
  return hsum_epi32(acc);
}

constexpr bool kPackedSimd = true;

#else  // no 8-bit-lane SIMD: vec-packed is never eligible (igemm.cpp)

constexpr bool kPackedSimd = false;

#endif

// ---- shared driver ----------------------------------------------------------

/// Output rows per parallel_for chunk.
constexpr std::size_t kRowGrain = 8;

/// Dot-layout GEMM driver: C[i,j] = epilogue(dot(x_row_i, w_row_j)),
/// both operand rows `kp` lanes apart.  Parallel over output rows in
/// kRowGrain chunks; 4-wide register tiling over the weight rows j with a
/// dot1 tail, so each activation row is loaded once per four output
/// channels.  The epilogue channel is the column j.  `Epi` is one of the
/// igemm_detail epilogue policies (float affine or fixed-point requant).
template <typename TX, typename TW, typename Epi>
void dot_driver(std::size_t m, std::size_t n, std::size_t kp, const TX* x,
                const TW* w, const Epi& epi, const ExecContext& ctx) {
  parallel_for(ctx, m, kRowGrain, [&](std::size_t i0, std::size_t i1) {
    for (std::size_t i = i0; i < i1; ++i) {
      const TX* xrow = x + i * kp;
      std::size_t j = 0;
      for (; j + 4 <= n; j += 4) {
        std::int32_t out[4];
        dot4(xrow, w + j * kp, w + (j + 1) * kp, w + (j + 2) * kp,
             w + (j + 3) * kp, kp, out);
        for (std::size_t t = 0; t < 4; ++t) {
          epi.store(i * n + j + t, j + t, out[t]);
        }
      }
      for (; j < n; ++j) {
        epi.store(i * n + j, j, dot1(xrow, w + j * kp, kp));
      }
    }
  });
}

}  // namespace

bool packed_simd() { return kPackedSimd; }

void run_vec16(const IgemmOp& op, const ExecContext& ctx) {
  const IgemmPanel& panel = *op.panel;
  dispatch_epilogue(op, [&](const auto& epi) {
    dot_driver(op.m, op.n, panel.stride, op.x16, panel.i16.data(), epi, ctx);
  });
}

#if defined(__SSSE3__)
void run_vec_packed(const IgemmOp& op, const ExecContext& ctx) {
  const IgemmPanel& panel = *op.panel;
  dispatch_epilogue(op, [&](const auto& epi) {
    dot_driver(op.m, op.n, panel.stride, op.x8, panel.i8.data(), epi, ctx);
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
