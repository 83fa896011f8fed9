#include "ccq/tensor/igemm.hpp"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <type_traits>

#include "ccq/common/error.hpp"
#include "ccq/common/telemetry.hpp"
#include "ccq/tensor/igemm_detail.hpp"

namespace ccq {

namespace {

/// Serial scalar microkernel over output rows [row0, row1).  One
/// accumulator strip of up to kIgemmMaxNc lives on the stack per row;
/// depth is walked in kc panels with the zero-multiplier skip of
/// tensor/gemm.  Integer math is exact, so the jc/pc blocking order
/// cannot change the result — only overflow could, and the caller's
/// accumulator choice rules that out.  The epilogue policy (float affine
/// or fixed-point requant, igemm_detail) consumes each finished
/// accumulator; for the float policy the expression shape matches the
/// naive engine loop, so outputs match it bit for bit.
template <typename TA, typename TB, typename Acc, bool kPerRowScale,
          typename Epi>
void igemm_rows(std::size_t row0, std::size_t row1, std::size_t n,
                std::size_t k, const TA* a, const TB* b, const Epi& epi,
                const IgemmBlocking& blk) {
  const std::size_t nc_max = std::min(std::max<std::size_t>(blk.nc, 1),
                                      kIgemmMaxNc);
  const std::size_t kc_max = std::max<std::size_t>(blk.kc, 1);
  Acc acc[kIgemmMaxNc];
  for (std::size_t i = row0; i < row1; ++i) {
    const TA* arow = a + i * k;
    for (std::size_t jc = 0; jc < n; jc += nc_max) {
      const std::size_t nc = std::min(nc_max, n - jc);
      std::fill(acc, acc + nc, Acc{0});
      for (std::size_t pc = 0; pc < k; pc += kc_max) {
        const std::size_t kc = std::min(kc_max, k - pc);
        for (std::size_t p = 0; p < kc; ++p) {
          const Acc av = static_cast<Acc>(arow[pc + p]);
          if (av == 0) continue;
          const TB* brow = b + (pc + p) * n + jc;
          for (std::size_t j = 0; j < nc; ++j) {
            acc[j] += av * static_cast<Acc>(brow[j]);
          }
        }
      }
      for (std::size_t j = 0; j < nc; ++j) {
        epi.store(i * n + jc + j, kPerRowScale ? i : jc + j, acc[j]);
      }
    }
  }
}

/// Scalar-kernel execution of a validated IgemmOp.  kWX reads the panel
/// as the left operand (rows×depth row-major); kXW reads it as the right
/// operand (depth×rows) — both are the layouts igemm_pack emits for
/// IgemmKernel::kScalar.  Dispatches over the op's activation code type
/// and epilogue policy (igemm_detail::with_x / dispatch_epilogue).
void run_scalar(const IgemmOp& op, const ExecContext& ctx) {
  const std::int16_t* w = op.panel->i16.data();
  const std::size_t grain = std::max<std::size_t>(op.blocking.row_grain, 1);
  igemm_detail::with_x(op, [&](const auto* x) {
    using TX = std::remove_cv_t<std::remove_pointer_t<decltype(x)>>;
    igemm_detail::dispatch_epilogue(op, [&](const auto& epi) {
      parallel_for(ctx, op.m, grain, [&](std::size_t row0, std::size_t row1) {
        if (op.form == IgemmForm::kWX) {
          if (op.accum == IgemmAccum::kInt32) {
            igemm_rows<std::int16_t, TX, std::int32_t, true>(
                row0, row1, op.n, op.k, w, x, epi, op.blocking);
          } else {
            igemm_rows<std::int16_t, TX, std::int64_t, true>(
                row0, row1, op.n, op.k, w, x, epi, op.blocking);
          }
        } else {
          if (op.accum == IgemmAccum::kInt32) {
            igemm_rows<TX, std::int16_t, std::int32_t, false>(
                row0, row1, op.n, op.k, x, w, epi, op.blocking);
          } else {
            igemm_rows<TX, std::int16_t, std::int64_t, false>(
                row0, row1, op.n, op.k, x, w, epi, op.blocking);
          }
        }
      });
    });
  });
}

}  // namespace

bool igemm_fits_int32(std::int64_t max_abs_a, std::int64_t max_abs_b,
                      std::size_t k) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int32_t>::max();
  if (max_abs_a <= 0 || max_abs_b <= 0 || k == 0) return true;
  if (max_abs_a > kMax / max_abs_b) return false;      // per-term overflow
  const std::int64_t per_term = max_abs_a * max_abs_b;
  return per_term <= kMax / static_cast<std::int64_t>(k);
}

std::int32_t igemm_max_abs(const std::vector<std::int32_t>& codes) {
  std::int32_t max_abs = 0;
  for (std::int32_t c : codes) {
    max_abs = std::max(max_abs, c < 0 ? -c : c);
  }
  return max_abs;
}

// ---- kernel registry --------------------------------------------------------

const char* igemm_kernel_str(IgemmKernel kernel) {
  switch (kernel) {
    case IgemmKernel::kScalar: return "scalar";
    case IgemmKernel::kVec16: return "vec16";
    case IgemmKernel::kVecPacked: return "vec-packed";
    case IgemmKernel::kAuto: return "auto";
  }
  return "?";
}

std::vector<std::string> igemm_kernel_names() {
  return {"scalar", "vec16", "vec-packed", "auto"};
}

IgemmKernel igemm_kernel_from_str(const std::string& name) {
  if (name == "scalar") return IgemmKernel::kScalar;
  if (name == "vec16") return IgemmKernel::kVec16;
  if (name == "vec-packed") return IgemmKernel::kVecPacked;
  if (name == "auto") return IgemmKernel::kAuto;
  std::string known;
  for (const std::string& k : igemm_kernel_names()) {
    if (!known.empty()) known += ", ";
    known += k;
  }
  throw Error("unknown igemm kernel '" + name + "' (available: " + known + ")");
}

IgemmKernel igemm_requested_kernel() {
  const char* env = std::getenv("CCQ_IGEMM_KERNEL");
  if (env == nullptr || *env == '\0') return IgemmKernel::kAuto;
  return igemm_kernel_from_str(env);
}

bool igemm_packed_simd() { return igemm_detail::packed_simd(); }

bool igemm_kernel_eligible(IgemmKernel kernel, std::int32_t w_max,
                           std::int64_t x_bound, IgemmAccum accum) {
  constexpr std::int64_t kI16Max = 32767;
  switch (kernel) {
    case IgemmKernel::kScalar:
      return true;
    case IgemmKernel::kVec16:
      // Activation codes narrow to int16 lanes; pairwise pmaddwd sums of
      // two products stay under the igemm_fits_int32 bound that licensed
      // the int32 accumulator.
      return accum == IgemmAccum::kInt32 && w_max <= kI16Max &&
             x_bound > 0 && x_bound <= kI16Max;
    case IgemmKernel::kVecPacked:
      // Needs 8-bit-lane SIMD (the build has no other vec-packed loop);
      // int8 weight lanes, uint8 activation lanes, and no intermediate
      // int16 saturation in maddubs: |pair| <= 2·w_max·x_bound <= 32767.
      return igemm_packed_simd() && accum == IgemmAccum::kInt32 &&
             w_max <= 127 && x_bound > 0 &&
             x_bound <= 255 &&
             2 * static_cast<std::int64_t>(w_max) * x_bound <= kI16Max;
    case IgemmKernel::kAuto:
      break;  // a selection policy, never directly executable
  }
  return false;
}

IgemmKernel igemm_select_kernel(IgemmKernel requested, std::int32_t w_max,
                                std::int64_t x_bound, IgemmAccum accum) {
  // An eligible explicit request is honoured as-is (forcing a kernel is
  // how tests and benchmarks pin a variant).  Ineligible requests —
  // vec-packed on builds without 8-bit SIMD among them — and kAuto fall
  // down the density ladder.
  if (requested != IgemmKernel::kAuto &&
      igemm_kernel_eligible(requested, w_max, x_bound, accum)) {
    return requested;
  }
  if (igemm_kernel_eligible(IgemmKernel::kVecPacked, w_max, x_bound, accum)) {
    return IgemmKernel::kVecPacked;
  }
  if (igemm_kernel_eligible(IgemmKernel::kVec16, w_max, x_bound, accum)) {
    return IgemmKernel::kVec16;
  }
  return IgemmKernel::kScalar;
}

// ---- packing ----------------------------------------------------------------

namespace {

/// Range-check one weight code against a kernel's lane type, naming the
/// offending value and position on failure (packed panels are a
/// compile-time contract, not a silent narrowing).
void check_code_fits(std::int32_t v, std::int32_t lo, std::int32_t hi,
                     std::size_t r, std::size_t p, const char* lane) {
  if (v < lo || v > hi) {
    throw Error("igemm panel: weight code " + std::to_string(v) + " at (" +
                std::to_string(r) + ", " + std::to_string(p) +
                ") does not fit the " + lane + " lane format");
  }
}

}  // namespace

std::vector<std::int16_t> igemm_pack_panel(
    const std::vector<std::int32_t>& codes, std::size_t rows,
    std::size_t cols, bool transpose) {
  CCQ_CHECK(codes.size() == rows * cols,
            "igemm panel: code count does not match rows x cols");
  constexpr std::int32_t kLo = std::numeric_limits<std::int16_t>::min();
  constexpr std::int32_t kHi = std::numeric_limits<std::int16_t>::max();
  std::vector<std::int16_t> panel(codes.size());
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t col = 0; col < cols; ++col) {
      const std::int32_t v = codes[r * cols + col];
      check_code_fits(v, kLo, kHi, r, col, "int16 panel");
      const std::size_t dst = transpose ? col * rows + r : r * cols + col;
      panel[dst] = static_cast<std::int16_t>(v);
    }
  }
  return panel;
}

IgemmPanel igemm_pack(const std::vector<std::int32_t>& codes,
                      std::size_t rows, std::size_t depth, IgemmForm form,
                      IgemmKernel kernel) {
  CCQ_CHECK(kernel != IgemmKernel::kAuto,
            "igemm_pack: kAuto is a selection policy — resolve it with "
            "igemm_select_kernel first");
  CCQ_CHECK(codes.size() == rows * depth,
            "igemm panel: code count does not match rows x depth");
  IgemmPanel panel;
  panel.kernel = kernel;
  panel.form = form;
  panel.rows = rows;
  panel.depth = depth;
  panel.max_abs = igemm_max_abs(codes);
  switch (kernel) {
    case IgemmKernel::kScalar:
      // The rank-1 layouts the scalar microkernel walks: kWX keeps the
      // row-major rows×depth matrix; kXW transposes to depth×rows.
      panel.stride = form == IgemmForm::kWX ? depth : rows;
      panel.i16 = igemm_pack_panel(codes, rows, depth,
                                   /*transpose=*/form == IgemmForm::kXW);
      break;
    case IgemmKernel::kVec16: {
      panel.stride =
          igemm_detail::round_up(depth, igemm_detail::kVec16Pad);
      panel.i16.assign(rows * panel.stride, 0);
      for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t p = 0; p < depth; ++p) {
          const std::int32_t v = codes[r * depth + p];
          check_code_fits(v, -32768, 32767, r, p, "vec16 int16");
          panel.i16[r * panel.stride + p] = static_cast<std::int16_t>(v);
        }
      }
      break;
    }
    case IgemmKernel::kVecPacked: {
      panel.stride =
          igemm_detail::round_up(depth, igemm_detail::kPackedPad);
      panel.i8.assign(rows * panel.stride, 0);
      for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t p = 0; p < depth; ++p) {
          const std::int32_t v = codes[r * depth + p];
          check_code_fits(v, -127, 127, r, p, "vec-packed int8");
          panel.i8[r * panel.stride + p] = static_cast<std::int8_t>(v);
        }
      }
      break;
    }
    case IgemmKernel::kAuto:
      break;  // unreachable (checked above)
  }
  return panel;
}

// ---- execution --------------------------------------------------------------

void igemm_run(const IgemmOp& op, const ExecContext& ctx) {
  CCQ_CHECK(op.panel != nullptr, "igemm_run: op has no packed panel");
  const IgemmPanel& panel = *op.panel;
  CCQ_CHECK(panel.kernel != IgemmKernel::kAuto,
            "igemm_run: panel was packed for kAuto (not executable)");
  CCQ_CHECK(panel.form == op.form,
            "igemm_run: panel form does not match op form");
  const std::size_t panel_rows = op.form == IgemmForm::kWX ? op.m : op.n;
  if (panel.rows != panel_rows || panel.depth != op.k) {
    throw Error("igemm_run: panel shape (" + std::to_string(panel.rows) +
                " x " + std::to_string(panel.depth) +
                ") does not match op (rows " + std::to_string(panel_rows) +
                ", depth " + std::to_string(op.k) + ")");
  }
  if (op.m == 0 || op.n == 0) return;
  if (op.requant != nullptr) {
    CCQ_CHECK((op.out8 != nullptr) != (op.out16 != nullptr),
              "igemm_run: requant epilogue needs exactly one code output "
              "(out8 or out16)");
    CCQ_CHECK(op.c == nullptr,
              "igemm_run: requant epilogue and float output are exclusive");
    CCQ_CHECK(op.requant_qmax > 0, "igemm_run: requant_qmax must be positive");
  } else {
    CCQ_CHECK(op.out8 == nullptr && op.out16 == nullptr,
              "igemm_run: code outputs need requant parameters");
    CCQ_CHECK(op.c != nullptr, "igemm_run: null output");
    CCQ_CHECK(op.epilogue.scale != nullptr && op.epilogue.bias != nullptr,
              "igemm_run: null epilogue scale/bias");
  }
  const int x_inputs = (op.x != nullptr ? 1 : 0) + (op.x8 != nullptr ? 1 : 0) +
                       (op.x16 != nullptr ? 1 : 0);
  CCQ_CHECK(op.k == 0 ? x_inputs <= 1 : x_inputs == 1,
            "igemm_run: exactly one activation code input (x, x8 or x16) "
            "must be set");
  if (!igemm_kernel_eligible(panel.kernel, panel.max_abs, op.x_bound,
                             op.accum)) {
    throw Error(
        std::string("igemm_run: kernel '") + igemm_kernel_str(panel.kernel) +
        "' is not eligible for this op (w_max=" +
        std::to_string(panel.max_abs) +
        ", x_bound=" + std::to_string(op.x_bound) + ", accum=" +
        (op.accum == IgemmAccum::kInt32 ? "int32" : "int64") +
        "); re-select with igemm_select_kernel and re-pack");
  }
  telemetry::ScopedTimer timer(telemetry::Timer::kIgemm);
  switch (panel.kernel) {
    case IgemmKernel::kScalar: {
      telemetry::ScopedTimer kt(telemetry::Timer::kIgemmScalar);
      run_scalar(op, ctx);
      break;
    }
    case IgemmKernel::kVec16: {
      telemetry::ScopedTimer kt(telemetry::Timer::kIgemmVec16);
      igemm_detail::run_vec16(op, ctx);
      break;
    }
    case IgemmKernel::kVecPacked: {
      telemetry::ScopedTimer kt(telemetry::Timer::kIgemmVecPacked);
      igemm_detail::run_vec_packed(op, ctx);
      break;
    }
    case IgemmKernel::kAuto:
      break;  // unreachable (checked above)
  }
}

}  // namespace ccq
