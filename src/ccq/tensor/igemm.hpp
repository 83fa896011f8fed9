// Low-bit integer GEMM — the deployed MAC datapath.
//
// The integer engine (hw/integer_engine) computes every conv / linear
// layer over 8-bit-or-narrower integer codes through this kernel family:
// explicitly vectorized microkernels behind a small named registry.
// Every layer is one product of activation *dot rows* against a packed
// weight panel, C[m,n] = Σ_k X[m,k]·W[n,k], with a per-output-channel
// (per-column) epilogue: a conv's rows are the batch's output pixels
// lowered channels-last (`im2row`), a linear layer's rows are samples.
//
//   * weight codes are packed once (plan-compile / artifact-load time)
//     into an `IgemmPanel` whose layout is owned by the kernel that will
//     execute it (`igemm_pack`);
//   * activation codes are u8 (every grid the engine serves is at most
//     8 bits wide) and arrive as dot rows `panel.stride` lanes apart, in
//     the kernel's lane type (i16 for vec16, u8 for vec-packed), written
//     straight into that layout by the caller's lowering — the kernels
//     never repack them;
//   * one igemm invocation is described by an `IgemmOp` — shapes, packed
//     panel, activation rows, epilogue (per-channel float scale/bias, or
//     fixed-point requantization writing the next layer's u8 codes
//     directly) — and executed by `igemm_run`, which dispatches on the
//     panel's kernel variant;
//   * kernels: `vec16` (register-tiled int16×int16→int32 widening
//     multiply-accumulate — `pmaddwd`-shaped, so SSE2/AVX2 intrinsics
//     where the feature gate allows and a compiler-vectorizable portable
//     loop elsewhere; eligible for every op), `vec-packed` (weights and
//     activations in 8-bit lanes for 2–4-bit layers, doubling arithmetic
//     density per vector op; SSSE3/AVX2 builds only), and `auto` (pick
//     the densest eligible kernel);
//   * accumulation is always `int32`: `igemm_run` refuses an op unless
//     the static bound max|w|·x_bound·k fits (`igemm_fits_int32`).  With
//     doubled 8-bit weight codes (±256) and u8 activations that holds up
//     to depth 32 896.
//
// Exactness: integer arithmetic is associative, so any panel order, lane
// width or thread partition produces the same sums — provided no
// intermediate overflows.  The int32 bound guarantees that for every
// partial sum (each is a subset of at most k terms of magnitude <=
// max|w|·x_bound), and vec-packed's eligibility rule (below) extends the
// same argument to its narrower intermediates, so results are
// bit-identical to a naive int64 triple loop for every kernel and
// thread count (tests/igemm_property_test.cpp enforces this
// differentially).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "ccq/common/exec.hpp"
#include "ccq/tensor/requant.hpp"

namespace ccq {

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
  kVec16,      ///< int16×int16→int32 widening-MAC dot kernel (SIMD)
  kVecPacked,  ///< 8-bit lanes (low-bit layers): 2× density over vec16
  kAuto,       ///< resolve per layer from the code bounds
};

/// Registry introspection: the names `$CCQ_IGEMM_KERNEL` accepts, in
/// registry order ("vec16", "vec-packed", "auto").
std::vector<std::string> igemm_kernel_names();

const char* igemm_kernel_str(IgemmKernel kernel);

/// Parse a kernel name.  Throws ccq::Error naming the unknown value and
/// listing the available kernels (mirroring the quant registry style).
IgemmKernel igemm_kernel_from_str(const std::string& name);

/// The kernel requested via `$CCQ_IGEMM_KERNEL` (kAuto when unset).
/// Throws the igemm_kernel_from_str error on an unknown name — callers
/// (plan finalize, artifact load) surface it with their own context.
IgemmKernel igemm_requested_kernel();

/// True when `kernel` can execute an op whose weight codes are bounded
/// by `w_max` and whose activation codes lie in [0, x_bound] exactly —
/// on top of `igemm_run`'s precondition (x_bound in [1, 255], the int32
/// proof):
///   vec16      — always (u8 codes widen to int16 lanes; pairwise
///                pmaddwd sums stay under the int32 bound);
///   vec-packed — only on builds with 8-bit-lane SIMD
///                (`igemm_packed_simd`), with w_max <= 127 (int8 weight
///                lanes) and 2·w_max·x_bound <= 32767 so pairwise
///                products cannot reach int16 saturation (true for every
///                2–4-bit ladder rung).
bool igemm_kernel_eligible(IgemmKernel kernel, std::int32_t w_max,
                           std::int64_t x_bound);

/// Resolve `requested` to a concrete executable kernel for a layer with
/// the given static bounds: an eligible explicit request is honoured;
/// kAuto (and any ineligible request) takes vec-packed when eligible,
/// else vec16.
IgemmKernel igemm_select_kernel(IgemmKernel requested, std::int32_t w_max,
                                std::int64_t x_bound);

/// True when this build has narrow-lane SIMD for vec-packed (SSSE3/AVX2
/// maddubs path) — without it vec-packed is never eligible.
bool igemm_packed_simd();

// ---- packed weight panels ---------------------------------------------------

/// Weight codes packed for one kernel variant, in its row-major
/// rows×stride "dot layout": each output channel's codes contiguous
/// over depth, zero-padded to a lane-multiple stride — i16 for vec16,
/// i8 for vec-packed.  Padding zeros contribute zero products, so the
/// padded dot is exact whatever the activation rows hold in their
/// padding lanes.
struct IgemmPanel {
  IgemmKernel kernel = IgemmKernel::kVec16;  ///< layout owner
  std::size_t rows = 0;    ///< output channels / features
  std::size_t depth = 0;   ///< logical reduction length k
  /// Lanes per activation dot row and per packed weight row: depth
  /// rounded up to the kernel's lane multiple — 16 for vec16, 32 for
  /// vec-packed.
  std::size_t stride = 0;
  std::int32_t max_abs = 0;  ///< max |weight code|
  std::vector<std::int16_t> i16;  ///< vec16 storage
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
/// are given `panel->stride` lanes apart in the panel kernel's lane
/// type: vec16 reads `x16`, vec-packed reads `x8` (lanes past k are
/// never multiplied by anything but padding zeros).  The result goes to
/// exactly one of:
///   * `c` — float epilogue: C = float(acc)·scale[j] + bias[j];
///   * `out8` — requant epilogue: each accumulator is requantized by its
///     column's `requant` entry (requant_apply, codes clamped to
///     [0, requant_qmax], requant_qmax <= 255) and written as the next
///     layer's u8 activation code.  The caller must have built the
///     Requant parameters against this op's true accumulator bound
///     (hw::make_requant) — that is what keeps acc·M + B inside int64.
/// Outputs are row-major m×n, so a conv over channels-last dot rows
/// writes channels-last codes.  `x_bound` asserts the activation codes
/// lie in [0, x_bound]; it must be in [1, 255].
struct IgemmOp {
  std::size_t m = 0, n = 0, k = 0;  ///< C is m×n over reduction depth k
  const IgemmPanel* panel = nullptr;
  const std::uint8_t* x8 = nullptr;   ///< u8 rows (vec-packed), or
  const std::int16_t* x16 = nullptr;  ///< i16 rows (vec16)
  float* c = nullptr;                 ///< float-epilogue output, or
  std::uint8_t* out8 = nullptr;       ///< requantized u8 codes
  IgemmEpilogue epilogue;
  const Requant* requant = nullptr;  ///< per-column params (n entries)
  std::int32_t requant_qmax = 0;     ///< code ceiling: 2^act_bits − 1
  std::int64_t x_bound = 0;
};

/// Execute an op with the kernel its panel was packed for.  Checks the
/// precondition every kernel's exactness rests on — x_bound in [1, 255]
/// and max|w|·x_bound·k within int32 (`igemm_fits_int32`) — and that the
/// panel matches the op's shapes, that the activation rows come in the
/// kernel's lane type and that the kernel is eligible for the op's
/// bounds; a violation throws ccq::Error rather than risking inexact
/// lanes.  Parallel over output rows; deterministic and bit-identical
/// across kernels and thread counts.
void igemm_run(const IgemmOp& op, const ExecContext& ctx = ExecContext::global());

}  // namespace ccq
