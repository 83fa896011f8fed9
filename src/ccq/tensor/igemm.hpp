// Blocked low-bit integer GEMM — the deployed MAC datapath.
//
// The integer engine (hw/integer_engine) computes every conv / linear
// layer over k-bit integer codes; this kernel family gives that path the
// same blocked/tiled treatment the float side gets from tensor/gemm —
// plus explicitly vectorized microkernels behind a small named registry.
// Every layer is one product of activation *dot rows* against a packed
// weight panel, C[m,n] = Σ_k X[m,k]·W[n,k], with a per-output-channel
// (per-column) epilogue: a conv's rows are the batch's output pixels
// lowered channels-last (`im2row`), a linear layer's rows are samples.
//
//   * weight codes are packed once (plan-compile / artifact-load time)
//     into an `IgemmPanel` whose layout is owned by the kernel that will
//     execute it (`igemm_pack`);
//   * activation codes arrive as dot rows `panel.stride` lanes apart, in
//     the kernel's lane type (u8 / i16 / int32 for scalar, i16 for
//     vec16, u8 for vec-packed), written straight into that layout by
//     the caller's lowering — the kernels never repack them;
//   * one igemm invocation is described by an `IgemmOp` — shapes, packed
//     panel, activation rows, epilogue (per-channel float scale/bias, or
//     fixed-point requantization writing the next layer's codes
//     directly), accumulator width, blocking — and executed by
//     `igemm_run`, which dispatches on the panel's kernel variant;
//   * kernels: `scalar` (the cache-blocked rank-1-update loop, any
//     accumulator), `vec16` (register-tiled int16×int16→int32 widening
//     multiply-accumulate — `pmaddwd`-shaped, so SSE2/AVX2 intrinsics
//     where the feature gate allows and a compiler-vectorizable portable
//     loop elsewhere), `vec-packed` (weights and activations narrowed to
//     8-bit lanes for 2–4-bit layers, doubling arithmetic density per
//     vector op; SSSE3/AVX2 builds only), and `auto` (pick the densest
//     eligible kernel);
//   * accumulation is `int32` when the statically computed bound
//     max|a|·max|b|·k fits (see `igemm_fits_int32`), else `int64`.
//
// Exactness: integer arithmetic is associative, so *any* blocking
// factor, panel order, lane width or thread partition produces the same
// sums — provided no intermediate overflows.  The int32 bound guarantees
// that for every partial sum (each is a subset of at most k terms of
// magnitude <= max|a|·max|b|), and the vector kernels' eligibility rules
// (below) extend the same argument to their narrower intermediates, so
// results are bit-identical to a naive int64 triple loop for all kernels,
// blockings and thread counts (tests/igemm_property_test.cpp enforces
// this differentially).
//
// Activation codes are required to be representable in int32.  Codes on
// a quantized activation grid (<16 bits) always are; unbounded float
// activations already lose integer exactness in any float-held datapath
// beyond 2^24, so int32 is not a new restriction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "ccq/common/exec.hpp"
#include "ccq/tensor/requant.hpp"

namespace ccq {

/// Accumulator width for one igemm call.  Pick with `igemm_fits_int32`;
/// running the int32 path past its bound is signed-overflow UB, which is
/// why the engine selects the accumulator from a static per-layer bound
/// instead of trusting runtime luck.
enum class IgemmAccum : std::uint8_t { kInt32, kInt64 };

/// Cache-blocking factors.  The defaults mirror tensor/gemm (an `nc`
/// strip of output columns of the weight panel plus a `kc` depth slice
/// stay L2-resident); tests sweep them to prove blocking never changes
/// bits.
/// The vector kernels honour `row_grain` (their parallel partition) and
/// ignore `nc`/`kc` — their dot-product layout is depth-contiguous, so
/// panelised rank-1 blocking does not apply.
struct IgemmBlocking {
  std::size_t nc = 256;        ///< column-panel width (clamped to kIgemmMaxNc)
  std::size_t kc = 128;        ///< depth-panel height
  std::size_t row_grain = 8;   ///< output rows per parallel_for chunk
};

/// Upper bound on the accumulator strip held per output row (stack
/// storage in the scalar microkernel); `nc` is clamped to it.
inline constexpr std::size_t kIgemmMaxNc = 512;

/// True when k products of magnitude <= max_abs_a * max_abs_b plus their
/// running sums provably fit an int32 accumulator:
/// max_abs_a · max_abs_b · k <= INT32_MAX, evaluated without overflow.
bool igemm_fits_int32(std::int64_t max_abs_a, std::int64_t max_abs_b,
                      std::size_t k);

/// Largest |code| in a code vector (0 when empty).
std::int32_t igemm_max_abs(const std::vector<std::int32_t>& codes);

// ---- kernel registry --------------------------------------------------------

/// Named kernel variants.  `kAuto` is a selection policy, not an
/// executable kernel: `igemm_select_kernel` resolves it (and any
/// ineligible explicit request) to the densest eligible concrete kernel.
enum class IgemmKernel : std::uint8_t {
  kScalar,     ///< cache-blocked rank-1 updates; int32 or int64 accumulator
  kVec16,      ///< int16×int16→int32 widening-MAC dot kernel (SIMD)
  kVecPacked,  ///< 8-bit lanes (low-bit layers): 2× density over vec16
  kAuto,       ///< resolve per layer from bit width / code bounds
};

/// Registry introspection: the names `$CCQ_IGEMM_KERNEL` accepts, in
/// registry order ("scalar", "vec16", "vec-packed", "auto").
std::vector<std::string> igemm_kernel_names();

const char* igemm_kernel_str(IgemmKernel kernel);

/// Parse a kernel name.  Throws ccq::Error naming the unknown value and
/// listing the available kernels (mirroring the quant registry style).
IgemmKernel igemm_kernel_from_str(const std::string& name);

/// The kernel requested via `$CCQ_IGEMM_KERNEL` (kAuto when unset).
/// Throws the igemm_kernel_from_str error on an unknown name — callers
/// (plan finalize, artifact load) surface it with their own context.
IgemmKernel igemm_requested_kernel();

/// True when `kernel` can execute a problem with the given static
/// operand bounds exactly:
///   scalar     — always;
///   vec16      — int32 accumulator and activation codes known to lie in
///                [0, x_bound] with x_bound <= 32767 (codes narrow to
///                int16 lanes; pairwise pmaddwd intermediates stay under
///                the igemm_fits_int32 bound the caller established);
///   vec-packed — only on builds with 8-bit-lane SIMD
///                (`igemm_packed_simd`), and additionally w_max <= 127
///                (int8 weight lanes), x_bound <= 255 (uint8 lanes) and
///                2·w_max·x_bound <= 32767 so pairwise products cannot
///                reach int16 saturation (true for every 2–4-bit ladder
///                rung, and for wider codes against small grids).
/// `x_bound` uses the engine's convention: > 0 asserts activation codes
/// lie in [0, x_bound]; 0 means unknown (vector kernels ineligible).
bool igemm_kernel_eligible(IgemmKernel kernel, std::int32_t w_max,
                           std::int64_t x_bound, IgemmAccum accum);

/// Resolve `requested` to a concrete executable kernel for a layer with
/// the given static bounds: kAuto (and any ineligible explicit request)
/// walks vec-packed → vec16 → scalar, taking the first eligible one.
IgemmKernel igemm_select_kernel(IgemmKernel requested, std::int32_t w_max,
                                std::int64_t x_bound, IgemmAccum accum);

/// True when this build has narrow-lane SIMD for vec-packed (SSSE3/AVX2
/// maddubs path) — without it vec-packed is never eligible.
bool igemm_packed_simd();

// ---- packed weight panels ---------------------------------------------------

/// Weight codes packed for one kernel variant.  The layout is owned by
/// the kernel:
///   scalar     — i16, transposed depth×rows (the right-hand operand of
///                its rank-1 updates);
///   vec16      — i16, row-major rows×stride "dot layout" (each output
///                channel's codes contiguous over depth, zero-padded to
///                a lane-multiple stride);
///   vec-packed — same dot layout in i8.
/// Padding zeros contribute zero products, so the padded dot is exact
/// whatever the activation rows hold in their padding lanes.
struct IgemmPanel {
  IgemmKernel kernel = IgemmKernel::kScalar;  ///< layout owner
  std::size_t rows = 0;    ///< output channels / features
  std::size_t depth = 0;   ///< logical reduction length k
  /// Lanes per activation dot row (and per packed weight row of the dot
  /// layouts): depth rounded up to the kernel's lane multiple — 16 for
  /// vec16, 32 for vec-packed, no padding for scalar.
  std::size_t stride = 0;
  std::int32_t max_abs = 0;  ///< max |weight code|
  std::vector<std::int16_t> i16;  ///< scalar / vec16 storage
  std::vector<std::int8_t> i8;    ///< vec-packed storage

  bool empty() const { return i16.empty() && i8.empty(); }
};

/// Pack `rows`×`depth` row-major weight codes for `kernel`.  Throws
/// ccq::Error naming the offending value when a code does not fit the
/// kernel's lane type (int16, or int8 for vec-packed) — packed panels
/// are a compile-time contract, not a silent narrowing.  `kernel` must
/// be concrete (resolve kAuto with `igemm_select_kernel` first).
IgemmPanel igemm_pack(const std::vector<std::int32_t>& codes,
                      std::size_t rows, std::size_t depth,
                      IgemmKernel kernel);

// ---- the op descriptor ------------------------------------------------------

/// Per-output-channel affine epilogue: C = float(acc) · scale + bias,
/// indexed by column.
struct IgemmEpilogue {
  const float* scale = nullptr;
  const float* bias = nullptr;
};

/// One igemm invocation, fully described: C[m,n] = Σ_k X[m,k]·W[n,k]
/// over the packed panel W (`panel->rows == n`).  The activation rows
/// are given through exactly one of `x` / `x8` / `x16`, `panel->stride`
/// lanes apart, in the panel kernel's lane type: scalar reads any of the
/// three, vec16 reads `x16`, vec-packed reads `x8` (lanes past k are
/// never multiplied by anything but padding zeros).  The result goes to
/// exactly one of:
///   * `c` — float epilogue: C = float(acc)·scale[j] + bias[j];
///   * `out8` / `out16` — requant epilogue: each accumulator is
///     requantized by its column's `requant` entry (requant_apply, codes
///     clamped to [0, requant_qmax]) and written as the next layer's
///     activation code.  The caller must have built the Requant
///     parameters against this op's true accumulator bound
///     (hw::make_requant) — that is what keeps acc·M + B inside int64.
/// Outputs are row-major m×n, so a conv over channels-last dot rows
/// writes channels-last codes.  `x_bound > 0` asserts the activation
/// codes lie in [0, x_bound] (the engine's statically threaded
/// per-layer bound); 0 = unknown, which confines execution to the
/// scalar kernel.
struct IgemmOp {
  std::size_t m = 0, n = 0, k = 0;  ///< C is m×n over reduction depth k
  const IgemmPanel* panel = nullptr;
  const std::int32_t* x = nullptr;    ///< int32 activation rows, or
  const std::uint8_t* x8 = nullptr;   ///< u8 rows (vec-packed, scalar), or
  const std::int16_t* x16 = nullptr;  ///< i16 rows (vec16, scalar)
  float* c = nullptr;                 ///< float-epilogue output, or
  std::uint8_t* out8 = nullptr;       ///< requantized u8 codes, or
  std::int16_t* out16 = nullptr;      ///< requantized i16 codes
  IgemmEpilogue epilogue;
  const Requant* requant = nullptr;  ///< per-column params (n entries)
  std::int32_t requant_qmax = 0;     ///< code ceiling: 2^act_bits − 1
  IgemmAccum accum = IgemmAccum::kInt64;
  IgemmBlocking blocking = {};
  std::int64_t x_bound = 0;
};

/// Execute an op with the kernel its panel was packed for.  Validates
/// that the panel matches the op's shapes, that the activation rows come
/// in the kernel's lane type and that the kernel is eligible for the
/// op's bounds — a mismatch throws ccq::Error rather than risking
/// inexact lanes.  Parallel over output rows; deterministic
/// and bit-identical across kernels, blockings and thread counts.
void igemm_run(const IgemmOp& op, const ExecContext& ctx = ExecContext::global());

/// Pack `rows`×`cols` int32 weight codes into a bare int16 panel,
/// row-major or, with `transpose`, column-major — the scalar kernel's
/// panel, which `igemm_pack` builds here.  Exposed for packing tests.
std::vector<std::int16_t> igemm_pack_panel(
    const std::vector<std::int32_t>& codes, std::size_t rows,
    std::size_t cols, bool transpose);

}  // namespace ccq
