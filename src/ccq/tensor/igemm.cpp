#include "ccq/tensor/igemm.hpp"

#include <algorithm>
#include <cstdlib>
#include <limits>

#include "ccq/common/error.hpp"
#include "ccq/common/telemetry.hpp"
#include "ccq/tensor/igemm_detail.hpp"

namespace ccq {

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
    case IgemmKernel::kVec16: return "vec16";
    case IgemmKernel::kVecPacked: return "vec-packed";
    case IgemmKernel::kAuto: return "auto";
  }
  return "?";
}

std::vector<std::string> igemm_kernel_names() {
  return {"vec16", "vec-packed", "auto"};
}

IgemmKernel igemm_kernel_from_str(const std::string& name) {
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
                           std::int64_t x_bound) {
  switch (kernel) {
    case IgemmKernel::kVec16:
      // u8 codes widen to int16 lanes; pairwise pmaddwd sums of two
      // products stay under the int32 bound igemm_run checks.
      return true;
    case IgemmKernel::kVecPacked:
      // Needs 8-bit-lane SIMD (the build has no other vec-packed loop);
      // int8 weight lanes, and no intermediate int16 saturation in
      // maddubs: |pair| <= 2·w_max·x_bound <= 32767.
      return igemm_packed_simd() && w_max <= 127 &&
             2 * static_cast<std::int64_t>(w_max) * x_bound <= 32767;
    case IgemmKernel::kAuto:
      break;  // a selection policy, never directly executable
  }
  return false;
}

IgemmKernel igemm_select_kernel(IgemmKernel requested, std::int32_t w_max,
                                std::int64_t x_bound) {
  // An eligible explicit request is honoured as-is (forcing a kernel is
  // how tests and benchmarks pin a variant).  Ineligible requests —
  // vec-packed on builds without 8-bit SIMD among them — and kAuto take
  // the densest eligible kernel.
  if (requested != IgemmKernel::kAuto &&
      igemm_kernel_eligible(requested, w_max, x_bound)) {
    return requested;
  }
  if (igemm_kernel_eligible(IgemmKernel::kVecPacked, w_max, x_bound)) {
    return IgemmKernel::kVecPacked;
  }
  return IgemmKernel::kVec16;
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

IgemmPanel igemm_pack(const std::vector<std::int32_t>& codes,
                      std::size_t rows, std::size_t depth,
                      IgemmKernel kernel) {
  CCQ_CHECK(kernel != IgemmKernel::kAuto,
            "igemm_pack: kAuto is a selection policy — resolve it with "
            "igemm_select_kernel first");
  CCQ_CHECK(codes.size() == rows * depth,
            "igemm panel: code count does not match rows x depth");
  IgemmPanel panel;
  panel.kernel = kernel;
  panel.rows = rows;
  panel.depth = depth;
  panel.max_abs = igemm_max_abs(codes);
  switch (kernel) {
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
  if (panel.rows != op.n || panel.depth != op.k) {
    throw Error("igemm_run: panel shape (" + std::to_string(panel.rows) +
                " x " + std::to_string(panel.depth) +
                ") does not match op (n " + std::to_string(op.n) +
                ", depth " + std::to_string(op.k) + ")");
  }
  // The precondition every kernel's exactness argument rests on: u8
  // activation codes and int32 sums that provably cannot overflow.
  if (op.x_bound < 1 || op.x_bound > 255) {
    throw Error("igemm_run: activation code bound x_bound=" +
                std::to_string(op.x_bound) + " outside [1, 255]");
  }
  if (!igemm_fits_int32(panel.max_abs, op.x_bound, op.k)) {
    throw Error("igemm_run: int32 accumulation is not provably exact "
                "(w_max=" + std::to_string(panel.max_abs) +
                ", x_bound=" + std::to_string(op.x_bound) +
                ", depth=" + std::to_string(op.k) +
                "): w_max·x_bound·depth exceeds INT32_MAX");
  }
  if (op.m == 0 || op.n == 0) return;
  if (op.requant != nullptr) {
    CCQ_CHECK(op.out8 != nullptr,
              "igemm_run: requant epilogue needs a code output (out8)");
    CCQ_CHECK(op.c == nullptr,
              "igemm_run: requant epilogue and float output are exclusive");
    CCQ_CHECK(op.requant_qmax > 0 && op.requant_qmax <= 255,
              "igemm_run: requant_qmax must lie in [1, 255]");
  } else {
    CCQ_CHECK(op.out8 == nullptr,
              "igemm_run: code outputs need requant parameters");
    CCQ_CHECK(op.c != nullptr, "igemm_run: null output");
    CCQ_CHECK(op.epilogue.scale != nullptr && op.epilogue.bias != nullptr,
              "igemm_run: null epilogue scale/bias");
  }
  // The dot kernels read the caller's rows as-is, so the rows must come
  // in the kernel's lane type.
  const bool vec16 = panel.kernel == IgemmKernel::kVec16;
  CCQ_CHECK(op.k == 0 || (vec16 ? op.x16 != nullptr && op.x8 == nullptr
                                : op.x8 != nullptr && op.x16 == nullptr),
            vec16 ? "igemm_run: vec16 reads int16 activation rows (x16)"
                  : "igemm_run: vec-packed reads uint8 activation rows (x8)");
  if (!igemm_kernel_eligible(panel.kernel, panel.max_abs, op.x_bound)) {
    throw Error(std::string("igemm_run: kernel '") +
                igemm_kernel_str(panel.kernel) +
                "' is not eligible for this op (w_max=" +
                std::to_string(panel.max_abs) +
                ", x_bound=" + std::to_string(op.x_bound) +
                "); re-select with igemm_select_kernel and re-pack");
  }
  telemetry::ScopedTimer timer(telemetry::Timer::kIgemm);
  if (vec16) {
    telemetry::ScopedTimer kt(telemetry::Timer::kIgemmVec16);
    igemm_detail::run_vec16(op, ctx);
  } else {
    telemetry::ScopedTimer kt(telemetry::Timer::kIgemmVecPacked);
    igemm_detail::run_vec_packed(op, ctx);
  }
}

}  // namespace ccq
