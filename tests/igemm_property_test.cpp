// Differential tests for the igemm kernel-dispatch family.
//
// The contract under test: for every bit width, shape, blocking factor,
// thread count AND kernel variant (scalar / vec16 / vec-packed), packing
// an `IgemmPanel` and executing the `IgemmOp` through `igemm_run` is
// bit-identical to a naive int64 triple loop — the 10-line reference
// below IS the specification; every kernel merely reorders exact integer
// arithmetic.  The sweep includes degenerate shapes (k = 0, single-row,
// single-column), alignment edges (depths straddling the SIMD lane
// padding), depths that straddle the int32/int64 accumulator bound, and
// a seeded randomized round of layer-like configs (fixed RNG, so
// failures reproduce exactly).  Registry selection, the env override and
// the deprecated positional shims are covered at the end.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "ccq/common/error.hpp"
#include "ccq/common/rng.hpp"
#include "ccq/hw/fixed_point.hpp"
#include "ccq/tensor/igemm.hpp"

namespace ccq {
namespace {

// ---- the specification ------------------------------------------------------

/// C[i,j] = float(Σ_p W[i,p]·X[p,j]) · scale[i] + bias[i]
void ref_wx(std::size_t m, std::size_t n, std::size_t k,
            const std::vector<std::int32_t>& w,
            const std::vector<std::int32_t>& x,
            const std::vector<float>& scale, const std::vector<float>& bias,
            std::vector<float>& c) {
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      std::int64_t acc = 0;
      for (std::size_t p = 0; p < k; ++p)
        acc += std::int64_t{w[i * k + p]} * std::int64_t{x[p * n + j]};
      c[i * n + j] = static_cast<float>(acc) * scale[i] + bias[i];
    }
}

/// C[i,j] = float(Σ_p X[i,p]·W[p,j]) · scale[j] + bias[j]
void ref_xw(std::size_t m, std::size_t n, std::size_t k,
            const std::vector<std::int32_t>& x,
            const std::vector<std::int32_t>& w,
            const std::vector<float>& scale, const std::vector<float>& bias,
            std::vector<float>& c) {
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      std::int64_t acc = 0;
      for (std::size_t p = 0; p < k; ++p)
        acc += std::int64_t{x[i * k + p]} * std::int64_t{w[p * n + j]};
      c[i * n + j] = static_cast<float>(acc) * scale[j] + bias[j];
    }
}

// ---- fixtures ---------------------------------------------------------------

struct Problem {
  std::size_t m, n, k;
  std::vector<std::int32_t> w;   // m×k weight codes (row-major)
  std::vector<std::int32_t> x;   // k×n activation codes (row-major)
  std::vector<float> row_scale, row_bias;  // per-row (kWX)
  std::vector<float> col_scale, col_bias;  // per-column (kXW)
};

Problem make_problem(Rng& rng, std::size_t m, std::size_t n, std::size_t k,
                     std::int32_t max_w, std::int32_t max_x) {
  Problem p;
  p.m = m;
  p.n = n;
  p.k = k;
  p.w.resize(m * k);
  p.x.resize(k * n);
  for (auto& v : p.w) {
    v = static_cast<std::int32_t>(rng.uniform_int(2 * max_w + 1)) - max_w;
  }
  for (auto& v : p.x) {
    // Activation codes are non-negative (ReLU-clipped grids) with a
    // sprinkle of zeros, matching what the engine feeds the kernel.
    v = static_cast<std::int32_t>(rng.uniform_int(max_x + 1));
    if (rng.uniform() < 0.25) v = 0;
  }
  p.row_scale.resize(m);
  p.row_bias.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    p.row_scale[i] = static_cast<float>(rng.uniform(0.001, 0.1));
    p.row_bias[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  p.col_scale.resize(n);
  p.col_bias.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    p.col_scale[j] = static_cast<float>(rng.uniform(0.001, 0.1));
    p.col_bias[j] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return p;
}

/// Every concrete kernel whose eligibility rule admits these bounds.
std::vector<IgemmKernel> eligible_kernels(std::int32_t w_max,
                                          std::int64_t x_bound,
                                          IgemmAccum accum) {
  std::vector<IgemmKernel> kernels{IgemmKernel::kScalar};
  for (IgemmKernel k : {IgemmKernel::kVec16, IgemmKernel::kVecPacked}) {
    if (igemm_kernel_eligible(k, w_max, x_bound, accum)) kernels.push_back(k);
  }
  return kernels;
}

/// Run both op forms through every eligible kernel × accumulator and
/// demand bit-identity with the int64 reference.
void expect_bit_identical(const Problem& p, const ExecContext& ctx,
                          const IgemmBlocking& blk) {
  const std::int32_t max_w = igemm_max_abs(p.w);
  const std::int64_t x_bound =
      std::max<std::int64_t>(igemm_max_abs(p.x), 1);

  std::vector<IgemmAccum> accums{IgemmAccum::kInt64};
  if (igemm_fits_int32(max_w, x_bound, p.k)) {
    accums.push_back(IgemmAccum::kInt32);
  }

  // W·X form (conv after im2col): W is m×k, X is k×n, per-row epilogue.
  std::vector<float> want(p.m * p.n), got(p.m * p.n);
  ref_wx(p.m, p.n, p.k, p.w, p.x, p.row_scale, p.row_bias, want);
  for (IgemmAccum accum : accums) {
    for (IgemmKernel kernel : eligible_kernels(max_w, x_bound, accum)) {
      const IgemmPanel panel =
          igemm_pack(p.w, p.m, p.k, IgemmForm::kWX, kernel);
      IgemmOp op;
      op.form = IgemmForm::kWX;
      op.m = p.m;
      op.n = p.n;
      op.k = p.k;
      op.panel = &panel;
      op.x = p.x.data();
      op.c = got.data();
      op.epilogue = {p.row_scale.data(), p.row_bias.data()};
      op.accum = accum;
      op.blocking = blk;
      op.x_bound = x_bound;
      std::fill(got.begin(), got.end(), -7.0f);
      igemm_run(op, ctx);
      ASSERT_EQ(want, got)
          << "kWX kernel=" << igemm_kernel_str(kernel) << " m=" << p.m
          << " n=" << p.n << " k=" << p.k << " threads=" << ctx.threads()
          << " nc=" << blk.nc << " kc=" << blk.kc
          << " accum=" << static_cast<int>(accum);
    }
  }

  // X·W form (linear): a batch of k-length activation rows (columns of
  // the X above) against the weight panel on the right, so the output
  // lands batch×m with per-column scale/bias — exactly how the engine
  // drives linear layers.
  const std::size_t batch = p.n == 0 ? 0 : std::min<std::size_t>(p.n, 6);
  std::vector<std::int32_t> xl(batch * p.k);
  for (std::size_t i = 0; i < batch; ++i)
    for (std::size_t pp = 0; pp < p.k; ++pp)
      xl[i * p.k + pp] = p.x[pp * p.n + i];  // column i of X
  std::vector<std::int32_t> wt(p.k * p.m);
  for (std::size_t pp = 0; pp < p.k; ++pp)
    for (std::size_t i = 0; i < p.m; ++i) wt[pp * p.m + i] = p.w[i * p.k + pp];
  std::vector<float> want2(batch * p.m), got2(batch * p.m);
  ref_xw(batch, p.m, p.k, xl, wt, p.row_scale, p.row_bias, want2);
  for (IgemmAccum accum : accums) {
    for (IgemmKernel kernel : eligible_kernels(max_w, x_bound, accum)) {
      const IgemmPanel panel =
          igemm_pack(p.w, p.m, p.k, IgemmForm::kXW, kernel);
      IgemmOp op;
      op.form = IgemmForm::kXW;
      op.m = batch;
      op.n = p.m;
      op.k = p.k;
      op.panel = &panel;
      op.x = xl.data();
      op.c = got2.data();
      op.epilogue = {p.row_scale.data(), p.row_bias.data()};
      op.accum = accum;
      op.blocking = blk;
      op.x_bound = x_bound;
      std::fill(got2.begin(), got2.end(), -7.0f);
      igemm_run(op, ctx);
      ASSERT_EQ(want2, got2)
          << "kXW kernel=" << igemm_kernel_str(kernel) << " batch=" << batch
          << " m=" << p.m << " k=" << p.k << " threads=" << ctx.threads()
          << " nc=" << blk.nc << " kc=" << blk.kc
          << " accum=" << static_cast<int>(accum);
    }
  }
}

const ExecContext& ctx_for(std::size_t threads) {
  static const ExecContext one;       // serial
  static const ExecContext two(2);
  static const ExecContext four(4);
  switch (threads) {
    case 2: return two;
    case 4: return four;
    default: return one;
  }
}

// ---- parameterized sweep ----------------------------------------------------

struct Shape {
  std::size_t m, n, k;
};

class IgemmSweep : public ::testing::TestWithParam<std::tuple<int, Shape>> {};

TEST_P(IgemmSweep, BitIdenticalAcrossKernelsBlockingsAndThreads) {
  const int bits = std::get<0>(GetParam());
  const Shape s = std::get<1>(GetParam());
  // Doubled k-bit weight codes lie in ±2^bits; activations come from the
  // 8-bit input grid at most.
  const auto max_w = static_cast<std::int32_t>(1 << bits);
  const std::int32_t max_x = 255;
  Rng rng(0x51C0DE + static_cast<std::uint64_t>(bits) * 1000003 +
          s.m * 7919 + s.n * 104729 + s.k);
  const Problem p = make_problem(rng, s.m, s.n, s.k, max_w, max_x);

  const IgemmBlocking blockings[] = {
      {},                                     // production defaults
      {.nc = 1, .kc = 1, .row_grain = 1},     // fully degenerate tiles
      {.nc = 3, .kc = 5, .row_grain = 2},     // awkward odd tiles
      {.nc = 512, .kc = 1 << 20, .row_grain = 64},  // one giant tile
      {.nc = kIgemmMaxNc + 100, .kc = 7, .row_grain = 3},  // nc clamped
  };
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    for (const IgemmBlocking& blk : blockings) {
      expect_bit_identical(p, ctx_for(threads), blk);
      if (HasFatalFailure()) return;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    BitsAndShapes, IgemmSweep,
    ::testing::Combine(::testing::Values(2, 3, 4, 5, 6, 7, 8),
                       ::testing::Values(Shape{1, 1, 0},    // empty depth
                                         Shape{1, 7, 3},    // single row
                                         Shape{5, 1, 9},    // single column
                                         Shape{8, 33, 7},   // sub-tile
                                         Shape{16, 17, 131},  // kc straddle
                                         Shape{3, 259, 5},    // nc straddle
                                         Shape{4, 600, 3},    // n > max nc
                                         Shape{6, 29, 64})));

// Alignment edges: depths around the vec16 (16-lane) and vec-packed
// (32-lane) padding boundaries, crossed with column counts around the
// 4-wide register tile — the zero-padded lane tails and the dot1
// column tail must not change a single bit.
TEST(IgemmAlignmentEdge, LanePaddingAndColumnTails) {
  Rng rng(0xA11C4ED);
  for (std::size_t k : {std::size_t{1}, std::size_t{7}, std::size_t{15},
                        std::size_t{16}, std::size_t{17}, std::size_t{31},
                        std::size_t{32}, std::size_t{33}, std::size_t{63}}) {
    for (std::size_t n : {std::size_t{1}, std::size_t{3}, std::size_t{5}}) {
      // 3-bit codes with 255-bound activations: both vector kernels
      // eligible, so all three variants run per config.
      const Problem p = make_problem(rng, 5, n, k, /*max_w=*/8,
                                     /*max_x=*/255);
      expect_bit_identical(p, ctx_for(2), {});
      if (HasFatalFailure()) {
        ADD_FAILURE() << "failing alignment edge: k=" << k << " n=" << n;
        return;
      }
    }
  }
}

// Depths that straddle the int32 accumulator bound at full 8-bit code
// magnitudes: the kernels must agree with the reference on BOTH sides —
// int32 (and the vector kernels) just below the bound, forced int64
// (scalar only) just above it.
TEST(IgemmBoundStraddle, ExactAcrossTheAccumulatorBound) {
  const std::int32_t max_w = 256, max_x = 255;  // 8-bit envelope
  // 256·255·k ≤ INT32_MAX ⇔ k ≤ 32896 (65280·32896 = 2,147,450,880).
  ASSERT_TRUE(igemm_fits_int32(max_w, max_x, 32896));
  ASSERT_FALSE(igemm_fits_int32(max_w, max_x, 32897));
  Rng rng(0xB0B0);
  for (std::size_t k : {std::size_t{32896}, std::size_t{32897}}) {
    const Problem p = make_problem(rng, 2, 3, k, max_w, max_x);
    expect_bit_identical(p, ctx_for(4), {});
  }
}

// ---- seeded randomized round ------------------------------------------------

TEST(IgemmRandomized, TwoHundredLayerConfigs) {
  Rng rng(0xCC0FFEE);  // fixed seed: failures replay bit-exactly
  for (int iter = 0; iter < 200; ++iter) {
    const std::size_t m = 1 + rng.uniform_int(24);
    const std::size_t n = 1 + rng.uniform_int(400);
    // ~5% of configs get k = 0 (a conv over an empty patch never occurs,
    // but the kernel contract covers it: pure bias epilogue).
    const std::size_t k = rng.uniform() < 0.05 ? 0 : 1 + rng.uniform_int(260);
    const int bits = 2 + static_cast<int>(rng.uniform_int(7));
    const auto max_w = static_cast<std::int32_t>(1 << bits);
    const std::int32_t max_x =
        static_cast<std::int32_t>(1 + rng.uniform_int(255));
    const Problem p = make_problem(rng, m, n, k, max_w, max_x);
    const IgemmBlocking blk{.nc = 1 + rng.uniform_int(600),
                            .kc = 1 + rng.uniform_int(300),
                            .row_grain = 1 + rng.uniform_int(16)};
    const std::size_t threads = std::size_t{1} << rng.uniform_int(3);  // 1/2/4
    expect_bit_identical(p, ctx_for(threads), blk);
    if (HasFatalFailure()) {
      ADD_FAILURE() << "failing config: iter=" << iter << " m=" << m
                    << " n=" << n << " k=" << k << " bits=" << bits;
      return;
    }
  }
}

// ---- kernel registry --------------------------------------------------------

TEST(IgemmRegistry, NamesRoundTripAndOrder) {
  const std::vector<std::string> names = igemm_kernel_names();
  ASSERT_EQ(names,
            (std::vector<std::string>{"scalar", "vec16", "vec-packed",
                                      "auto"}));
  for (const std::string& name : names) {
    EXPECT_EQ(igemm_kernel_str(igemm_kernel_from_str(name)), name);
  }
}

TEST(IgemmRegistry, UnknownNameListsAvailableKernels) {
  try {
    igemm_kernel_from_str("warp9");
    FAIL() << "expected ccq::Error";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("warp9"), std::string::npos) << msg;
    for (const std::string& name : igemm_kernel_names()) {
      EXPECT_NE(msg.find(name), std::string::npos)
          << "error must list '" << name << "': " << msg;
    }
  }
}

TEST(IgemmRegistry, EligibilityRules) {
  using K = IgemmKernel;
  // Scalar runs anything.
  EXPECT_TRUE(igemm_kernel_eligible(K::kScalar, 1 << 20, 0,
                                    IgemmAccum::kInt64));
  // Vector kernels need an int32 accumulator and a known activation bound.
  EXPECT_FALSE(igemm_kernel_eligible(K::kVec16, 8, 255, IgemmAccum::kInt64));
  EXPECT_FALSE(igemm_kernel_eligible(K::kVec16, 8, 0, IgemmAccum::kInt32));
  EXPECT_TRUE(igemm_kernel_eligible(K::kVec16, 8, 255, IgemmAccum::kInt32));
  EXPECT_TRUE(igemm_kernel_eligible(K::kVec16, 32767, 32767,
                                    IgemmAccum::kInt32));
  EXPECT_FALSE(igemm_kernel_eligible(K::kVec16, 40000, 255,
                                     IgemmAccum::kInt32));
  // vec-packed: 8-bit-lane SIMD builds only, then int8 weights, uint8
  // activations, no int16 pair saturation.
  EXPECT_EQ(igemm_kernel_eligible(K::kVecPacked, 16, 255, IgemmAccum::kInt32),
            igemm_packed_simd());
  EXPECT_FALSE(igemm_kernel_eligible(K::kVecPacked, 128, 255,
                                     IgemmAccum::kInt32));  // w > int8
  EXPECT_FALSE(igemm_kernel_eligible(K::kVecPacked, 16, 256,
                                     IgemmAccum::kInt32));  // x > uint8
  // 2·127·255 = 64770 > 32767: saturation risk, must be rejected even
  // though both lane types fit individually.
  EXPECT_FALSE(igemm_kernel_eligible(K::kVecPacked, 127, 255,
                                     IgemmAccum::kInt32));
  EXPECT_EQ(igemm_kernel_eligible(K::kVecPacked, 64, 255, IgemmAccum::kInt32),
            igemm_packed_simd());
  // kAuto is a policy, never directly executable.
  EXPECT_FALSE(igemm_kernel_eligible(K::kAuto, 8, 255, IgemmAccum::kInt32));
}

TEST(IgemmRegistry, SelectionWalksTheDensityLadder) {
  using K = IgemmKernel;
  // Low-bit layer: auto picks vec-packed when the build carries 8-bit
  // SIMD, vec16 otherwise.
  const K low = igemm_select_kernel(K::kAuto, 8, 255, IgemmAccum::kInt32);
  EXPECT_EQ(low, igemm_packed_simd() ? K::kVecPacked : K::kVec16);
  // Saturation-risky bounds skip vec-packed regardless of build.
  EXPECT_EQ(igemm_select_kernel(K::kAuto, 127, 255, IgemmAccum::kInt32),
            K::kVec16);
  // int64 accumulation confines execution to scalar.
  EXPECT_EQ(igemm_select_kernel(K::kAuto, 8, 255, IgemmAccum::kInt64),
            K::kScalar);
  // An eligible explicit request is honoured as-is...
  EXPECT_EQ(igemm_select_kernel(K::kVec16, 8, 255, IgemmAccum::kInt32),
            K::kVec16);
  EXPECT_EQ(igemm_select_kernel(K::kScalar, 8, 255, IgemmAccum::kInt32),
            K::kScalar);
  // ...an ineligible one falls down the same ladder as kAuto — as a
  // vec-packed pin does on builds without 8-bit-lane SIMD.
  EXPECT_EQ(igemm_select_kernel(K::kVecPacked, 8, 255, IgemmAccum::kInt32),
            igemm_packed_simd() ? K::kVecPacked : K::kVec16);
  EXPECT_EQ(igemm_select_kernel(K::kVecPacked, 8, 255, IgemmAccum::kInt64),
            K::kScalar);
}

TEST(IgemmRegistry, EnvOverrideParsesAndRejects) {
  const char* saved = std::getenv("CCQ_IGEMM_KERNEL");
  const std::string restore = saved != nullptr ? saved : "";
  unsetenv("CCQ_IGEMM_KERNEL");
  EXPECT_EQ(igemm_requested_kernel(), IgemmKernel::kAuto);
  setenv("CCQ_IGEMM_KERNEL", "scalar", 1);
  EXPECT_EQ(igemm_requested_kernel(), IgemmKernel::kScalar);
  setenv("CCQ_IGEMM_KERNEL", "vec16", 1);
  EXPECT_EQ(igemm_requested_kernel(), IgemmKernel::kVec16);
  setenv("CCQ_IGEMM_KERNEL", "hyperdrive", 1);
  EXPECT_THROW(igemm_requested_kernel(), Error);
  if (saved != nullptr) {
    setenv("CCQ_IGEMM_KERNEL", restore.c_str(), 1);
  } else {
    unsetenv("CCQ_IGEMM_KERNEL");
  }
}

// ---- op validation ----------------------------------------------------------

TEST(IgemmRunValidation, RejectsMismatchedPanels) {
  const std::vector<std::int32_t> codes{1, -2, 3, 4, -5, 6};  // 2×3
  const IgemmPanel panel =
      igemm_pack(codes, 2, 3, IgemmForm::kWX, IgemmKernel::kScalar);
  const std::vector<std::int32_t> x(3, 1);
  const std::vector<float> scale(2, 1.0f), bias(2, 0.0f);
  std::vector<float> c(2);
  IgemmOp op;
  op.form = IgemmForm::kWX;
  op.m = 2;
  op.n = 1;
  op.k = 3;
  op.panel = &panel;
  op.x = x.data();
  op.c = c.data();
  op.epilogue = {scale.data(), bias.data()};
  op.accum = IgemmAccum::kInt64;
  EXPECT_NO_THROW(igemm_run(op));

  IgemmOp bad_form = op;
  bad_form.form = IgemmForm::kXW;
  bad_form.m = 1;
  bad_form.n = 2;
  EXPECT_THROW(igemm_run(bad_form), Error);

  IgemmOp bad_depth = op;
  bad_depth.k = 4;
  EXPECT_THROW(igemm_run(bad_depth), Error);

  IgemmOp no_panel = op;
  no_panel.panel = nullptr;
  EXPECT_THROW(igemm_run(no_panel), Error);
}

TEST(IgemmRunValidation, RejectsIneligibleKernelForOpBounds) {
  const std::vector<std::int32_t> codes{1, -2, 3, 4, -5, 6};
  const IgemmPanel panel =
      igemm_pack(codes, 2, 3, IgemmForm::kWX, IgemmKernel::kVec16);
  const std::vector<std::int32_t> x(3, 1);
  const std::vector<float> scale(2, 1.0f), bias(2, 0.0f);
  std::vector<float> c(2);
  IgemmOp op;
  op.form = IgemmForm::kWX;
  op.m = 2;
  op.n = 1;
  op.k = 3;
  op.panel = &panel;
  op.x = x.data();
  op.c = c.data();
  op.epilogue = {scale.data(), bias.data()};
  op.accum = IgemmAccum::kInt32;
  op.x_bound = 255;
  EXPECT_NO_THROW(igemm_run(op));
  op.x_bound = 0;  // unknown activation bound: vec16 may not run
  EXPECT_THROW(igemm_run(op), Error);
  op.x_bound = 255;
  op.accum = IgemmAccum::kInt64;  // vec16 is an int32-accumulator kernel
  EXPECT_THROW(igemm_run(op), Error);
}

TEST(IgemmPack, DotLayoutPadsDepthToLaneMultiples) {
  const std::vector<std::int32_t> codes{1, 2, 3, 4, 5, 6};  // 2×3
  const IgemmPanel v16 =
      igemm_pack(codes, 2, 3, IgemmForm::kWX, IgemmKernel::kVec16);
  EXPECT_EQ(v16.stride, 16u);
  ASSERT_EQ(v16.i16.size(), 2u * 16u);
  EXPECT_EQ(v16.i16[0], 1);
  EXPECT_EQ(v16.i16[2], 3);
  EXPECT_EQ(v16.i16[3], 0);  // zero padding
  EXPECT_EQ(v16.i16[16], 4);  // second row starts on the stride
  EXPECT_EQ(v16.max_abs, 6);

  const IgemmPanel v8 =
      igemm_pack(codes, 2, 3, IgemmForm::kXW, IgemmKernel::kVecPacked);
  EXPECT_EQ(v8.stride, 32u);
  ASSERT_EQ(v8.i8.size(), 2u * 32u);
  EXPECT_EQ(v8.i8[32], 4);
  EXPECT_TRUE(v8.i16.empty());
}

TEST(IgemmPack, RejectsCodesOutsideTheKernelLaneType) {
  std::vector<std::int32_t> codes{0, 1, 200, 2};
  // 200 fits int16 lanes but not vec-packed's int8 lanes.
  EXPECT_NO_THROW(
      igemm_pack(codes, 2, 2, IgemmForm::kWX, IgemmKernel::kVec16));
  EXPECT_THROW(
      igemm_pack(codes, 2, 2, IgemmForm::kWX, IgemmKernel::kVecPacked),
      Error);
  codes[2] = 40000;  // beyond int16: every kernel rejects
  EXPECT_THROW(
      igemm_pack(codes, 2, 2, IgemmForm::kWX, IgemmKernel::kScalar), Error);
  EXPECT_THROW(
      igemm_pack(codes, 2, 2, IgemmForm::kWX, IgemmKernel::kVec16), Error);
  // kAuto is not a packable layout.
  codes[2] = 1;
  EXPECT_THROW(igemm_pack(codes, 2, 2, IgemmForm::kWX, IgemmKernel::kAuto),
               Error);
}

// ---- accumulator bound unit tests -------------------------------------------

TEST(IgemmFitsInt32, ExactBoundary) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int32_t>::max();
  // 1·1·INT32_MAX == INT32_MAX: the last admissible config.
  EXPECT_TRUE(igemm_fits_int32(1, 1, static_cast<std::size_t>(kMax)));
  EXPECT_FALSE(igemm_fits_int32(1, 1, static_cast<std::size_t>(kMax) + 1));
  // 510·255·16512 = 2,147,385,600 ≤ INT32_MAX; one more k-step exceeds.
  EXPECT_TRUE(igemm_fits_int32(510, 255, 16512));
  EXPECT_FALSE(igemm_fits_int32(510, 255, 16513));
  // Degenerate operands always fit: the sum is identically zero.
  EXPECT_TRUE(igemm_fits_int32(0, 255, 1u << 30));
  EXPECT_TRUE(igemm_fits_int32(510, 0, 1u << 30));
  EXPECT_TRUE(igemm_fits_int32(510, 255, 0));
  // The per-term product alone can bust int32 — and the predicate must
  // not itself overflow while deciding that.
  EXPECT_FALSE(igemm_fits_int32(kMax, kMax, 1));
  EXPECT_FALSE(igemm_fits_int32(1 << 20, 1 << 20, 4));
}

TEST(IgemmFitsInt32, BoundaryCodesRunExactInInt32) {
  // One product at the very top of int32: 32767 · 65535 = 2,147,385,345.
  const std::vector<std::int32_t> w{32767};
  const std::vector<std::int32_t> x{65535};
  ASSERT_TRUE(igemm_fits_int32(32767, 65535, 1));
  const IgemmPanel panel =
      igemm_pack(w, 1, 1, IgemmForm::kWX, IgemmKernel::kScalar);
  const std::vector<float> scale{1.0f}, bias{0.0f};
  float got = 0.0f;
  IgemmOp op;
  op.form = IgemmForm::kWX;
  op.m = 1;
  op.n = 1;
  op.k = 1;
  op.panel = &panel;
  op.x = x.data();
  op.c = &got;
  op.epilogue = {scale.data(), bias.data()};
  op.accum = IgemmAccum::kInt32;
  op.x_bound = 65535;
  igemm_run(op);
  EXPECT_EQ(got, static_cast<float>(std::int64_t{32767} * 65535));
}

TEST(IgemmFitsInt32, WrapBeyondTheBoundIsWhyThePredicateGates) {
  // Two such products overflow int32.  The kernel never runs int32 past
  // the bound (that would be signed-overflow UB), so demonstrate the
  // wrap in well-defined unsigned arithmetic: the mod-2^32 sum
  // reinterpreted as int32 disagrees with the int64 truth.
  const std::int64_t term = std::int64_t{32767} * 65535;
  ASSERT_FALSE(igemm_fits_int32(32767, 65535, 2));
  const std::int64_t truth = 2 * term;
  const auto wrapped_bits =
      static_cast<std::uint32_t>(2 * static_cast<std::uint64_t>(term));
  const auto wrapped = static_cast<std::int32_t>(wrapped_bits);
  EXPECT_NE(static_cast<std::int64_t>(wrapped), truth);
  // The int64 path the predicate falls back to stays exact.
  const std::vector<std::int32_t> w{32767, 32767};
  const std::vector<std::int32_t> x{65535, 65535};
  const IgemmPanel panel =
      igemm_pack(w, 1, 2, IgemmForm::kWX, IgemmKernel::kScalar);
  const std::vector<float> scale{1.0f}, bias{0.0f};
  float got = 0.0f;
  IgemmOp op;
  op.form = IgemmForm::kWX;
  op.m = 1;
  op.n = 1;
  op.k = 2;
  op.panel = &panel;
  op.x = x.data();
  op.c = &got;
  op.epilogue = {scale.data(), bias.data()};
  op.accum = IgemmAccum::kInt64;
  op.x_bound = 65535;
  igemm_run(op);
  EXPECT_EQ(got, static_cast<float>(truth));
}

// ---- legacy panel packing ---------------------------------------------------

TEST(IgemmPackPanel, TransposeLaysOutColumnsAsRows) {
  const std::vector<std::int32_t> codes{1, 2, 3, 4, 5, 6};  // 2×3
  const auto flat = igemm_pack_panel(codes, 2, 3, false);
  EXPECT_EQ(flat, (std::vector<std::int16_t>{1, 2, 3, 4, 5, 6}));
  const auto t = igemm_pack_panel(codes, 2, 3, true);
  EXPECT_EQ(t, (std::vector<std::int16_t>{1, 4, 2, 5, 3, 6}));
}

TEST(IgemmPackPanel, RejectsCodesOutsideInt16) {
  std::vector<std::int32_t> codes{0, 1, 40000, 2};
  EXPECT_THROW(igemm_pack_panel(codes, 2, 2, false), Error);
  codes[2] = -40000;
  EXPECT_THROW(igemm_pack_panel(codes, 2, 2, true), Error);
  codes[2] = 32767;  // int16 max is fine
  EXPECT_NO_THROW(igemm_pack_panel(codes, 2, 2, false));
}

// ---- requant epilogue differential ------------------------------------------

/// The fused-datapath spec: every kernel's requant epilogue must equal a
/// naive int64 accumulation followed by `requant_apply` — same integer
/// associativity argument as the float epilogue, now in the multiplier
/// domain.  Sweeps u8 and i16 code inputs/outputs, per-row (kWX) and
/// per-column (kXW) channel mapping, kernels, threads and a k-splitting
/// blocking (the epilogue must fire only after the full reduction).
TEST(IgemmRequantEpilogue, MatchesNaiveRequantApplyAcrossKernels) {
  Rng rng(0xCC01);
  struct Cfg {
    std::size_t m, n, k;
    std::int32_t max_w, max_x, qmax;
  };
  const Cfg configs[] = {
      {8, 33, 27, 7, 3, 255},      // vec-packed-eligible bounds, u8 codes
      {6, 18, 40, 100, 255, 255},  // full 8-bit input grid, u8 codes
      {5, 21, 16, 40, 1000, 4095}, // 10-bit codes: i16 in, i16 out
  };
  for (const Cfg& cfg : configs) {
    std::vector<std::int32_t> w(cfg.m * cfg.k), x(cfg.k * cfg.n);
    for (auto& v : w) {
      v = static_cast<std::int32_t>(rng.uniform_int(2 * cfg.max_w + 1)) -
          cfg.max_w;
    }
    for (auto& v : x) {
      v = static_cast<std::int32_t>(rng.uniform_int(cfg.max_x + 1));
    }
    const bool u8_codes = cfg.max_x <= 255 && cfg.qmax <= 255;
    std::vector<std::uint8_t> x8(x.begin(), x.end());
    std::vector<std::int16_t> x16(x.begin(), x.end());

    // Realistic per-channel parameters straight from make_requant.
    const std::int64_t bound = std::int64_t{cfg.max_w} * cfg.max_x *
                               static_cast<std::int64_t>(cfg.k);
    std::vector<Requant> rq(cfg.m);
    for (auto& r : rq) {
      ASSERT_TRUE(hw::make_requant(rng.uniform(0.001, 0.05),
                                   rng.uniform(-3.0, 3.0), bound, r));
    }

    // Naive spec: exact int64 accumulation, then requant_apply.
    std::vector<std::int32_t> want(cfg.m * cfg.n);
    for (std::size_t i = 0; i < cfg.m; ++i) {
      for (std::size_t j = 0; j < cfg.n; ++j) {
        std::int64_t acc = 0;
        for (std::size_t p = 0; p < cfg.k; ++p) {
          acc += std::int64_t{w[i * cfg.k + p]} *
                 std::int64_t{x[p * cfg.n + j]};
        }
        want[i * cfg.n + j] = requant_apply(acc, rq[i], cfg.qmax);
      }
    }

    const std::int32_t max_abs = igemm_max_abs(w);
    std::vector<IgemmAccum> accums{IgemmAccum::kInt64};
    if (igemm_fits_int32(max_abs, cfg.max_x, cfg.k)) {
      accums.push_back(IgemmAccum::kInt32);
    }
    const IgemmBlocking blockings[] = {{}, {.nc = 8, .kc = 7}};
    for (IgemmAccum accum : accums) {
      for (IgemmKernel kernel : eligible_kernels(max_abs, cfg.max_x, accum)) {
        const IgemmPanel panel =
            igemm_pack(w, cfg.m, cfg.k, IgemmForm::kWX, kernel);
        for (const IgemmBlocking& blk : blockings) {
          for (std::size_t threads : {1, 2, 4}) {
            IgemmOp op;
            op.form = IgemmForm::kWX;
            op.m = cfg.m;
            op.n = cfg.n;
            op.k = cfg.k;
            op.panel = &panel;
            op.accum = accum;
            op.blocking = blk;
            op.x_bound = cfg.max_x;
            op.requant = rq.data();
            op.requant_qmax = cfg.qmax;
            std::vector<std::uint8_t> got8(cfg.m * cfg.n, 0xEE);
            std::vector<std::int16_t> got16(cfg.m * cfg.n, -7);
            if (u8_codes) {
              op.x8 = x8.data();
              op.out8 = got8.data();
            } else {
              op.x16 = x16.data();
              op.out16 = got16.data();
            }
            igemm_run(op, ctx_for(threads));
            for (std::size_t i = 0; i < want.size(); ++i) {
              const std::int32_t got =
                  u8_codes ? static_cast<std::int32_t>(got8[i])
                           : static_cast<std::int32_t>(got16[i]);
              ASSERT_EQ(got, want[i])
                  << "kWX kernel=" << igemm_kernel_str(kernel)
                  << " accum=" << static_cast<int>(accum)
                  << " threads=" << threads << " nc=" << blk.nc
                  << " kc=" << blk.kc << " idx=" << i;
            }
          }
        }
      }
    }
  }
}

/// kXW form (linear layers): activations on the left, requant entries
/// indexed by output column.
TEST(IgemmRequantEpilogue, PerColumnRequantMatchesNaiveInXwForm) {
  Rng rng(0xCC02);
  const std::size_t batch = 5, out = 9, k = 31;
  std::vector<std::int32_t> wt(k * out), x(batch * k);
  for (auto& v : wt) {
    v = static_cast<std::int32_t>(rng.uniform_int(31)) - 15;
  }
  for (auto& v : x) {
    v = static_cast<std::int32_t>(rng.uniform_int(256));
  }
  std::vector<std::uint8_t> x8(x.begin(), x.end());
  const std::int64_t bound = std::int64_t{15} * 255 * k;
  std::vector<Requant> rq(out);
  for (auto& r : rq) {
    ASSERT_TRUE(hw::make_requant(rng.uniform(0.001, 0.05),
                                 rng.uniform(-3.0, 3.0), bound, r));
  }
  std::vector<std::int32_t> want(batch * out);
  for (std::size_t i = 0; i < batch; ++i) {
    for (std::size_t j = 0; j < out; ++j) {
      std::int64_t acc = 0;
      for (std::size_t p = 0; p < k; ++p) {
        acc += std::int64_t{x[i * k + p]} * std::int64_t{wt[p * out + j]};
      }
      want[i * out + j] = requant_apply(acc, rq[j], 255);
    }
  }
  // Pack via the kXW form: igemm_pack takes the weight as rows×depth.
  std::vector<std::int32_t> w_rows(out * k);
  for (std::size_t p = 0; p < k; ++p) {
    for (std::size_t j = 0; j < out; ++j) {
      w_rows[j * k + p] = wt[p * out + j];
    }
  }
  const std::int32_t max_abs = igemm_max_abs(w_rows);
  for (IgemmKernel kernel : eligible_kernels(max_abs, 255, IgemmAccum::kInt32)) {
    const IgemmPanel panel = igemm_pack(w_rows, out, k, IgemmForm::kXW, kernel);
    IgemmOp op;
    op.form = IgemmForm::kXW;
    op.m = batch;
    op.n = out;
    op.k = k;
    op.panel = &panel;
    op.accum = IgemmAccum::kInt32;
    op.x_bound = 255;
    op.x8 = x8.data();
    op.requant = rq.data();
    op.requant_qmax = 255;
    std::vector<std::uint8_t> got(batch * out, 0xEE);
    op.out8 = got.data();
    igemm_run(op, ctx_for(2));
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(static_cast<std::int32_t>(got[i]), want[i])
          << "kXW kernel=" << igemm_kernel_str(kernel) << " idx=" << i;
    }
  }
}

}  // namespace
}  // namespace ccq
