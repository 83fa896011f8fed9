// Differential tests for the igemm kernel-dispatch family.
//
// The contract under test: for every bit width, shape, thread count AND
// kernel variant (vec16 / vec-packed), packing an `IgemmPanel` and
// executing the `IgemmOp` through `igemm_run` is bit-identical to a
// naive int64 loop — the 10-line references below ARE the
// specification; every kernel merely reorders exact integer arithmetic.
// Plain products run as linear ops (one run per row, rows back to back
// in one map, slack poisoned); conv ops read multi-run patches from
// zero-bordered maps.  The sweep includes degenerate shapes (k = 0,
// single-row, single-column), alignment edges (depths straddling the
// SIMD lane padding, column counts around the four-channel tile),
// depths at the int32 bound that `igemm_run` enforces (and one past it,
// which it refuses), and a seeded randomized round of layer-like
// configs (fixed RNG, so failures reproduce exactly).  Registry
// selection and the env override are covered at the end.
#include <gtest/gtest.h>

#include <algorithm>
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

/// C[i,j] = float(Σ_p X[i,p]·W[j,p]) · scale[j] + bias[j]
void ref_xw(std::size_t m, std::size_t n, std::size_t k,
            const std::vector<std::int32_t>& x,
            const std::vector<std::int32_t>& w,
            const std::vector<float>& scale, const std::vector<float>& bias,
            std::vector<float>& c) {
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      std::int64_t acc = 0;
      for (std::size_t p = 0; p < k; ++p)
        acc += std::int64_t{x[i * k + p]} * std::int64_t{w[j * k + p]};
      c[i * n + j] = static_cast<float>(acc) * scale[j] + bias[j];
    }
}

// ---- fixtures ---------------------------------------------------------------

struct Problem {
  std::size_t m, n, k;
  std::vector<std::int32_t> x;   // m×k activation rows (row-major)
  std::vector<std::int32_t> w;   // n×k weight rows (row-major)
  std::vector<float> scale, bias;  // per output column
};

Problem make_problem(Rng& rng, std::size_t m, std::size_t n, std::size_t k,
                     std::int32_t max_w, std::int32_t max_x) {
  Problem p;
  p.m = m;
  p.n = n;
  p.k = k;
  p.w.resize(n * k);
  p.x.resize(m * k);
  for (auto& v : p.w) {
    v = static_cast<std::int32_t>(rng.uniform_int(2 * max_w + 1)) - max_w;
  }
  for (auto& v : p.x) {
    // Activation codes are non-negative (ReLU-clipped grids) with a
    // sprinkle of zeros, matching what the engine feeds the kernel.
    v = static_cast<std::int32_t>(rng.uniform_int(max_x + 1));
    if (rng.uniform() < 0.25) v = 0;
  }
  p.scale.resize(n);
  p.bias.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    p.scale[j] = static_cast<float>(rng.uniform(0.001, 0.1));
    p.bias[j] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return p;
}

/// Every concrete kernel whose eligibility rule admits these bounds.
std::vector<IgemmKernel> eligible_kernels(std::int32_t w_max,
                                          std::int64_t x_bound) {
  std::vector<IgemmKernel> kernels{IgemmKernel::kVec16};
  if (igemm_kernel_eligible(IgemmKernel::kVecPacked, w_max, x_bound)) {
    kernels.push_back(IgemmKernel::kVecPacked);
  }
  return kernels;
}

/// `x` (m rows of k codes) as a linear op's input: the rows back to back,
/// then kIgemmSlack bytes of poison.  A kernel reads each row a whole
/// vector at a time, past its end into the next row or the slack, and
/// may only ever multiply those lanes by the panel's zero padding.
std::vector<std::uint8_t> linear_maps(const std::vector<std::int32_t>& x) {
  std::vector<std::uint8_t> maps(x.size() + kIgemmSlack, 0xFF);
  std::copy(x.begin(), x.end(), maps.begin());
  return maps;
}

/// The patch geometry of a linear layer of depth k: a 1×1 map of k
/// channels per row.
ConvGeometry linear_geometry(std::size_t k) {
  return ConvGeometry{.in_channels = k, .in_h = 1, .in_w = 1};
}

/// A float-epilogue linear op over `p` with `panel`, reading `maps`
/// (linear_maps of p.x) and writing `c`.
IgemmOp float_op(const Problem& p, const IgemmPanel& panel,
                 const std::vector<std::uint8_t>& maps,
                 std::vector<float>& c) {
  IgemmOp op;
  op.geometry = linear_geometry(p.k);
  op.batch = p.m;
  op.panel = &panel;
  op.x = maps.data();
  op.c = c.data();
  op.epilogue = {p.scale.data(), p.bias.data()};
  op.x_bound = std::max<std::int64_t>(igemm_max_abs(p.x), 1);
  return op;
}

/// Run the op through every eligible kernel and demand bit-identity
/// with the int64 reference.
void expect_bit_identical(const Problem& p, const ExecContext& ctx) {
  const std::int32_t max_w = igemm_max_abs(p.w);
  const std::int64_t x_bound =
      std::max<std::int64_t>(igemm_max_abs(p.x), 1);

  // X·Wᵀ: activation rows against the weight panel, per-column
  // scale/bias — exactly how the engine drives a linear layer (rows =
  // samples); conv patches are covered by IgemmConvPatches below.
  std::vector<float> want(p.m * p.n), got(p.m * p.n);
  ref_xw(p.m, p.n, p.k, p.x, p.w, p.scale, p.bias, want);
  const std::vector<std::uint8_t> maps = linear_maps(p.x);
  for (IgemmKernel kernel : eligible_kernels(max_w, x_bound)) {
    const IgemmPanel panel = igemm_pack(p.w, p.n, p.k, kernel);
    const IgemmOp op = float_op(p, panel, maps, got);
    std::fill(got.begin(), got.end(), -7.0f);
    igemm_run(op, ctx);
    ASSERT_EQ(want, got) << "kernel=" << igemm_kernel_str(kernel)
                         << " m=" << p.m << " n=" << p.n << " k=" << p.k
                         << " threads=" << ctx.threads();
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

TEST_P(IgemmSweep, BitIdenticalAcrossKernelsAndThreads) {
  const int bits = std::get<0>(GetParam());
  const Shape s = std::get<1>(GetParam());
  // Doubled k-bit weight codes lie in ±2^bits; activations come from the
  // 8-bit input grid at most.
  const auto max_w = static_cast<std::int32_t>(1 << bits);
  const std::int32_t max_x = 255;
  Rng rng(0x51C0DE + static_cast<std::uint64_t>(bits) * 1000003 +
          s.m * 7919 + s.n * 104729 + s.k);
  const Problem p = make_problem(rng, s.m, s.n, s.k, max_w, max_x);
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    expect_bit_identical(p, ctx_for(threads));
    if (HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(
    BitsAndShapes, IgemmSweep,
    ::testing::Combine(::testing::Values(2, 3, 4, 5, 6, 7, 8),
                       ::testing::Values(Shape{1, 1, 0},    // empty depth
                                         Shape{1, 7, 3},    // single row
                                         Shape{5, 1, 9},    // single column
                                         Shape{8, 33, 7},   // sub-tile
                                         Shape{16, 17, 131},  // deep rows
                                         Shape{3, 259, 5},    // wide n
                                         Shape{4, 600, 3},    // wider n
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
      // 3-bit codes with 255-bound activations: vec-packed is eligible
      // wherever the build has 8-bit-lane SIMD, so both kernels run.
      const Problem p = make_problem(rng, 5, n, k, /*max_w=*/8,
                                     /*max_x=*/255);
      expect_bit_identical(p, ctx_for(2));
      if (HasFatalFailure()) {
        ADD_FAILURE() << "failing alignment edge: k=" << k << " n=" << n;
        return;
      }
    }
  }
}

// ---- conv patches -------------------------------------------------------------

// A conv op reads each output pixel's patch as `kernel` runs of kernel·C
// codes straight out of a zero-bordered map, and writes its outputs into
// a map bordered for the next conv.  Against a naive conv over the
// unbordered codes (padding taps skipped): multi-run patches whose runs
// straddle the lane padding, strides, borders, a 1×1 kernel, column
// tails after the four-channel tile, and an output border the op must
// leave alone.
TEST(IgemmConvPatches, BorderedMapsMatchNaiveConv) {
  struct Cfg {
    std::size_t c, h, w, k, stride, pad, n;
  };
  const Cfg configs[] = {
      {3, 7, 5, 3, 1, 1, 4},   // runs of 9 codes
      {4, 6, 6, 3, 2, 1, 8},   // runs of 12, stride 2
      {5, 5, 7, 2, 1, 0, 5},   // even kernel, column tail
      {1, 9, 4, 5, 3, 2, 3},   // one channel, wide border
      {11, 4, 3, 1, 1, 0, 7},  // 1×1 kernel: one run of 11
      {17, 3, 3, 3, 1, 1, 2},  // runs of 51 straddle vector steps
  };
  Rng rng(0xC0417);
  const std::size_t batch = 2;
  for (const Cfg& cfg : configs) {
    const ConvGeometry g{.in_channels = cfg.c, .in_h = cfg.h, .in_w = cfg.w,
                         .kernel = cfg.k, .stride = cfg.stride,
                         .pad = cfg.pad};
    const std::size_t oh = g.out_h(), ow = g.out_w(), k = cfg.k;
    for (std::int32_t max_w : {8, 256}) {
      const std::int32_t max_x = max_w == 8 ? 255 : 200;
      std::vector<std::int32_t> x(batch * cfg.h * cfg.w * cfg.c);
      for (auto& v : x) {
        v = static_cast<std::int32_t>(rng.uniform_int(max_x + 1));
      }
      // Weights in (oc, ky, kx, c) patch order.
      std::vector<std::int32_t> w(cfg.n * g.patch_size());
      for (auto& v : w) {
        v = static_cast<std::int32_t>(rng.uniform_int(2 * max_w + 1)) - max_w;
      }
      std::vector<float> scale(cfg.n), bias(cfg.n);
      for (std::size_t j = 0; j < cfg.n; ++j) {
        scale[j] = static_cast<float>(rng.uniform(0.001, 0.1));
        bias[j] = static_cast<float>(rng.uniform(-1.0, 1.0));
      }
      // The spec: a direct conv over the unbordered codes.
      std::vector<float> want(batch * oh * ow * cfg.n);
      for (std::size_t r = 0; r < batch * oh * ow; ++r) {
        const std::size_t img = r / (oh * ow), oy = r / ow % oh, ox = r % ow;
        for (std::size_t j = 0; j < cfg.n; ++j) {
          std::int64_t acc = 0;
          for (std::size_t ky = 0; ky < k; ++ky) {
            for (std::size_t kx = 0; kx < k; ++kx) {
              const long iy = static_cast<long>(oy * cfg.stride + ky) -
                              static_cast<long>(cfg.pad);
              const long ix = static_cast<long>(ox * cfg.stride + kx) -
                              static_cast<long>(cfg.pad);
              if (iy < 0 || ix < 0 || iy >= static_cast<long>(cfg.h) ||
                  ix >= static_cast<long>(cfg.w)) {
                continue;
              }
              for (std::size_t ch = 0; ch < cfg.c; ++ch) {
                acc += std::int64_t{w[((j * k + ky) * k + kx) * cfg.c + ch]} *
                       x[((img * cfg.h + static_cast<std::size_t>(iy)) *
                              cfg.w +
                          static_cast<std::size_t>(ix)) *
                             cfg.c +
                         ch];
              }
            }
          }
          want[r * cfg.n + j] = static_cast<float>(acc) * scale[j] + bias[j];
        }
      }
      // The op's input: the codes inside a zero border, slack poisoned.
      const std::size_t hp = cfg.h + 2 * cfg.pad, wp = cfg.w + 2 * cfg.pad;
      std::vector<std::uint8_t> maps(batch * hp * wp * cfg.c + kIgemmSlack,
                                     0xFF);
      std::fill(maps.begin(), maps.end() - kIgemmSlack, 0);
      for (std::size_t img = 0; img < batch; ++img) {
        for (std::size_t y = 0; y < cfg.h; ++y) {
          for (std::size_t xx = 0; xx < cfg.w; ++xx) {
            for (std::size_t ch = 0; ch < cfg.c; ++ch) {
              maps[((img * hp + y + cfg.pad) * wp + xx + cfg.pad) * cfg.c +
                   ch] = static_cast<std::uint8_t>(
                  x[((img * cfg.h + y) * cfg.w + xx) * cfg.c + ch]);
            }
          }
        }
      }
      for (IgemmKernel kernel : eligible_kernels(max_w, max_x)) {
        const IgemmPanel panel =
            igemm_pack(w, cfg.n, g.patch_size(), kernel, k);
        for (std::size_t out_pad : {0, 1}) {
          const std::size_t ohp = oh + 2 * out_pad, owp = ow + 2 * out_pad;
          for (std::size_t threads : {1, 4}) {
            std::vector<float> got(batch * ohp * owp * cfg.n, -7.0f);
            IgemmOp op;
            op.geometry = g;
            op.batch = batch;
            op.panel = &panel;
            op.x = maps.data();
            op.out_pad = out_pad;
            op.c = got.data();
            op.epilogue = {scale.data(), bias.data()};
            op.x_bound = max_x;
            igemm_run(op, ctx_for(threads));
            for (std::size_t img = 0; img < batch; ++img) {
              for (std::size_t y = 0; y < ohp; ++y) {
                for (std::size_t xx = 0; xx < owp; ++xx) {
                  const bool border = y < out_pad || xx < out_pad ||
                                      y >= oh + out_pad || xx >= ow + out_pad;
                  for (std::size_t j = 0; j < cfg.n; ++j) {
                    const float v =
                        got[((img * ohp + y) * owp + xx) * cfg.n + j];
                    const float expect =
                        border ? -7.0f
                               : want[((img * oh + y - out_pad) * ow + xx -
                                       out_pad) *
                                          cfg.n +
                                      j];
                    ASSERT_EQ(v, expect)
                        << "kernel=" << igemm_kernel_str(kernel)
                        << " c=" << cfg.c << " k=" << k
                        << " stride=" << cfg.stride << " pad=" << cfg.pad
                        << " out_pad=" << out_pad << " threads=" << threads
                        << " at img " << img << " (" << y << ", " << xx
                        << ") ch " << j;
                  }
                }
              }
            }
          }
        }
      }
    }
  }
}

/// A random problem whose first row pair is the worst case: every
/// weight code of output 0 at +max_w and every code of activation row 0
/// at max_x, so C[0,0] reaches max_w·max_x·k.
Problem worst_case_problem(Rng& rng, std::size_t k, std::int32_t max_w,
                           std::int32_t max_x) {
  Problem p = make_problem(rng, 2, 3, k, max_w, max_x);
  std::fill_n(p.w.begin(), k, max_w);
  std::fill_n(p.x.begin(), k, max_x);
  return p;
}

// Depths at the int32 bound igemm_run enforces, with full code
// magnitudes: the deepest provable op must run exact on every eligible
// kernel, and one step deeper igemm_run must refuse it.
TEST(IgemmBoundStraddle, ExactAtTheInt32BoundAndRefusedPastIt) {
  struct Edge {
    std::int32_t max_w;
    std::size_t deepest;  // largest k with max_w·255·k ≤ INT32_MAX
  };
  // 256·255·32896 = 2,147,450,880: doubled 8-bit weight codes (vec16).
  // 64·255·131586 = 2,147,483,520: codes vec-packed also runs.
  const Edge edges[] = {{256, 32896}, {64, 131586}};
  Rng rng(0xB0B0);
  for (const Edge& e : edges) {
    ASSERT_TRUE(igemm_fits_int32(e.max_w, 255, e.deepest));
    ASSERT_FALSE(igemm_fits_int32(e.max_w, 255, e.deepest + 1));
    expect_bit_identical(worst_case_problem(rng, e.deepest, e.max_w, 255),
                         ctx_for(4));
    if (HasFatalFailure()) return;

    const Problem past = worst_case_problem(rng, e.deepest + 1, e.max_w, 255);
    const std::vector<std::uint8_t> maps = linear_maps(past.x);
    for (IgemmKernel kernel : eligible_kernels(e.max_w, 255)) {
      const IgemmPanel panel = igemm_pack(past.w, past.n, past.k, kernel);
      std::vector<float> c(past.m * past.n);
      EXPECT_THROW(igemm_run(float_op(past, panel, maps, c), ctx_for(4)),
                   Error)
          << igemm_kernel_str(kernel) << " k=" << past.k;
    }
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
    const std::size_t threads = std::size_t{1} << rng.uniform_int(3);  // 1/2/4
    expect_bit_identical(p, ctx_for(threads));
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
  ASSERT_EQ(names, (std::vector<std::string>{"vec16", "vec-packed", "auto"}));
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
  // vec16 runs every op igemm_run admits.
  EXPECT_TRUE(igemm_kernel_eligible(K::kVec16, 8, 255));
  EXPECT_TRUE(igemm_kernel_eligible(K::kVec16, 256, 255));
  EXPECT_TRUE(igemm_kernel_eligible(K::kVec16, 32767, 1));
  // vec-packed: 8-bit-lane SIMD builds only, then int8 weights and no
  // int16 pair saturation.
  EXPECT_EQ(igemm_kernel_eligible(K::kVecPacked, 16, 255),
            igemm_packed_simd());
  EXPECT_FALSE(igemm_kernel_eligible(K::kVecPacked, 128, 1));  // w > int8
  // 2·127·255 = 64770 > 32767: saturation risk, must be rejected even
  // though both lane types fit individually.
  EXPECT_FALSE(igemm_kernel_eligible(K::kVecPacked, 127, 255));
  EXPECT_EQ(igemm_kernel_eligible(K::kVecPacked, 64, 255),
            igemm_packed_simd());
  EXPECT_FALSE(igemm_kernel_eligible(K::kVecPacked, 65, 255));
  // kAuto is a policy, never directly executable.
  EXPECT_FALSE(igemm_kernel_eligible(K::kAuto, 8, 255));
}

TEST(IgemmRegistry, SelectionWalksTheDensityLadder) {
  using K = IgemmKernel;
  // Low-bit layer: auto picks vec-packed when the build carries 8-bit
  // SIMD, vec16 otherwise.
  EXPECT_EQ(igemm_select_kernel(K::kAuto, 8, 255),
            igemm_packed_simd() ? K::kVecPacked : K::kVec16);
  // Saturation-risky bounds skip vec-packed regardless of build.
  EXPECT_EQ(igemm_select_kernel(K::kAuto, 127, 255), K::kVec16);
  // An eligible explicit request is honoured as-is...
  EXPECT_EQ(igemm_select_kernel(K::kVec16, 8, 255), K::kVec16);
  // ...an ineligible one falls to the kernel kAuto picks — as a
  // vec-packed pin does on builds without 8-bit-lane SIMD.
  EXPECT_EQ(igemm_select_kernel(K::kVecPacked, 8, 255),
            igemm_packed_simd() ? K::kVecPacked : K::kVec16);
  EXPECT_EQ(igemm_select_kernel(K::kVecPacked, 256, 255), K::kVec16);
}

TEST(IgemmRegistry, EnvOverrideParsesAndRejects) {
  const char* saved = std::getenv("CCQ_IGEMM_KERNEL");
  const std::string restore = saved != nullptr ? saved : "";
  unsetenv("CCQ_IGEMM_KERNEL");
  EXPECT_EQ(igemm_requested_kernel(), IgemmKernel::kAuto);
  setenv("CCQ_IGEMM_KERNEL", "vec16", 1);
  EXPECT_EQ(igemm_requested_kernel(), IgemmKernel::kVec16);
  setenv("CCQ_IGEMM_KERNEL", "vec-packed", 1);
  EXPECT_EQ(igemm_requested_kernel(), IgemmKernel::kVecPacked);
  for (const char* bad : {"hyperdrive", "scalar"}) {
    setenv("CCQ_IGEMM_KERNEL", bad, 1);
    EXPECT_THROW(igemm_requested_kernel(), Error) << bad;
  }
  if (saved != nullptr) {
    setenv("CCQ_IGEMM_KERNEL", restore.c_str(), 1);
  } else {
    unsetenv("CCQ_IGEMM_KERNEL");
  }
}

// ---- op validation ----------------------------------------------------------

/// A valid vec16 float-epilogue linear op over a 2×3 panel and one row
/// of ones; tests break one field at a time.
struct SmallOp {
  const std::vector<std::int32_t> codes{1, -2, 3, 4, -5, 6};  // 2×3
  const IgemmPanel panel = igemm_pack(codes, 2, 3, IgemmKernel::kVec16);
  const std::vector<std::uint8_t> x =
      std::vector<std::uint8_t>(3 + kIgemmSlack, 1);
  const std::vector<float> scale = std::vector<float>(2, 1.0f);
  const std::vector<float> bias = std::vector<float>(2, 0.0f);
  std::vector<float> c = std::vector<float>(2);

  IgemmOp op() {
    IgemmOp o;
    o.geometry = linear_geometry(3);
    o.batch = 1;
    o.panel = &panel;
    o.x = x.data();
    o.c = c.data();
    o.epilogue = {scale.data(), bias.data()};
    o.x_bound = 255;
    return o;
  }
};

TEST(IgemmRunValidation, RejectsMismatchedPanels) {
  SmallOp small;
  const IgemmOp op = small.op();
  EXPECT_NO_THROW(igemm_run(op));

  IgemmOp bad_depth = op;  // the panel holds depth-3 rows, not depth 4
  bad_depth.geometry.in_channels = 4;
  EXPECT_THROW(igemm_run(bad_depth), Error);

  IgemmOp no_panel = op;
  no_panel.panel = nullptr;
  EXPECT_THROW(igemm_run(no_panel), Error);

  // Same depth, other run split: a 3×3 conv over one channel reads 3
  // runs of 3 codes, which a one-run panel of depth 9 does not match.
  const std::vector<std::int32_t> codes(2 * 9, 1);
  const IgemmPanel one_run = igemm_pack(codes, 2, 9, IgemmKernel::kVec16);
  const IgemmPanel three_runs =
      igemm_pack(codes, 2, 9, IgemmKernel::kVec16, 3);
  const std::vector<std::uint8_t> map(9 + kIgemmSlack, 1);
  IgemmOp conv = op;
  conv.geometry = ConvGeometry{.in_channels = 1, .in_h = 3, .in_w = 3,
                               .kernel = 3};
  conv.x = map.data();
  conv.panel = &one_run;
  EXPECT_THROW(igemm_run(conv), Error);
  conv.panel = &three_runs;
  EXPECT_NO_THROW(igemm_run(conv));
  EXPECT_EQ(small.c, (std::vector<float>{9.0f, 9.0f}));
}

TEST(IgemmRunValidation, RejectsOpsOutsideTheU8Int32Precondition) {
  SmallOp small;
  IgemmOp op = small.op();
  // Activation codes must be u8 with a known bound.
  for (std::int64_t x_bound : {std::int64_t{0}, std::int64_t{256}}) {
    op.x_bound = x_bound;
    EXPECT_THROW(igemm_run(op), Error) << "x_bound " << x_bound;
  }
  op.x_bound = 255;
  EXPECT_NO_THROW(igemm_run(op));
  // The maps must be there.
  op.x = nullptr;
  EXPECT_THROW(igemm_run(op), Error);
  op.x = small.x.data();
  // Requantized codes are u8: a wider code ceiling is refused.
  const std::vector<Requant> rq(2);
  std::vector<std::uint8_t> out(2);
  op.c = nullptr;
  op.requant = rq.data();
  op.out8 = out.data();
  op.requant_qmax = 255;
  EXPECT_NO_THROW(igemm_run(op));
  op.requant_qmax = 256;
  EXPECT_THROW(igemm_run(op), Error);
}

TEST(IgemmRunValidation, RejectsIneligibleKernelForOpBounds) {
  if (!igemm_packed_simd()) GTEST_SKIP() << "vec-packed is never packed here";
  // 2·127·255 > 32767: maddubs could saturate, so a vec-packed panel of
  // these codes may not run against 255-bound codes, only smaller ones.
  const std::vector<std::int32_t> codes{127, -2, 3, 4, -5, 6};
  const IgemmPanel panel = igemm_pack(codes, 2, 3, IgemmKernel::kVecPacked);
  const std::vector<std::uint8_t> x(3 + kIgemmSlack, 1);
  const std::vector<float> scale(2, 1.0f), bias(2, 0.0f);
  std::vector<float> c(2);
  IgemmOp op;
  op.geometry = linear_geometry(3);
  op.batch = 1;
  op.panel = &panel;
  op.x = x.data();
  op.c = c.data();
  op.epilogue = {scale.data(), bias.data()};
  op.x_bound = 129;
  EXPECT_NO_THROW(igemm_run(op));
  op.x_bound = 255;
  EXPECT_THROW(igemm_run(op), Error);
}

TEST(IgemmPack, RunsPadToLaneMultiplesAndRowsToTheTile) {
  const std::vector<std::int32_t> codes{1, 2, 3, 4, 5, 6,  // 2 rows of
                                        7, 8, 9, 1, 2, 3};  // 2 runs of 3
  const IgemmPanel v16 =
      igemm_pack(codes, 2, 6, IgemmKernel::kVec16, /*runs=*/2);
  EXPECT_EQ(v16.runs, 2u);
  EXPECT_EQ(v16.run, 3u);
  // vec16 reads 8 codes per SSE2 step, 16 per AVX2 step.
  const std::size_t s = v16.run_stride;
  EXPECT_TRUE(s == 8 || s == 16) << s;
  // Four rows (two of them zero) of two runs, each padded to s lanes.
  ASSERT_EQ(v16.i16.size(), 4u * 2u * s);
  EXPECT_EQ(v16.i16[0], 1);
  EXPECT_EQ(v16.i16[2], 3);
  EXPECT_EQ(v16.i16[3], 0);  // zero padding after the first run
  EXPECT_EQ(v16.i16[s], 4);  // the second run starts on the stride
  EXPECT_EQ(v16.i16[2 * s], 7);  // the second row
  for (std::size_t i = 2 * 2 * s; i < v16.i16.size(); ++i) {
    ASSERT_EQ(v16.i16[i], 0) << "tile padding row lane " << i;
  }
  EXPECT_EQ(v16.max_abs, 9);
  EXPECT_TRUE(v16.i8.empty());

  const IgemmPanel v8 =
      igemm_pack(codes, 2, 6, IgemmKernel::kVecPacked, /*runs=*/2);
  const std::size_t s8 = v8.run_stride;
  EXPECT_TRUE(s8 == 16 || s8 == 32) << s8;  // SSSE3 / AVX2 step
  ASSERT_EQ(v8.i8.size(), 4u * 2u * s8);
  EXPECT_EQ(v8.i8[s8], 4);
  EXPECT_EQ(v8.i8[2 * s8 + 2], 9);
  EXPECT_TRUE(v8.i16.empty());

  // A row must split into whole runs.
  EXPECT_THROW(igemm_pack(codes, 2, 6, IgemmKernel::kVec16, 4), Error);
}

TEST(IgemmPack, RejectsCodesOutsideTheKernelLaneType) {
  std::vector<std::int32_t> codes{0, 1, 200, 2};
  // 200 fits int16 lanes but not vec-packed's int8 lanes.
  EXPECT_NO_THROW(igemm_pack(codes, 2, 2, IgemmKernel::kVec16));
  EXPECT_THROW(igemm_pack(codes, 2, 2, IgemmKernel::kVecPacked), Error);
  codes[2] = 40000;  // beyond int16: every kernel rejects
  EXPECT_THROW(igemm_pack(codes, 2, 2, IgemmKernel::kVec16), Error);
  codes[2] = -40000;
  EXPECT_THROW(igemm_pack(codes, 2, 2, IgemmKernel::kVec16), Error);
  codes[2] = 32767;  // int16 max is fine
  EXPECT_NO_THROW(igemm_pack(codes, 2, 2, IgemmKernel::kVec16));
  // kAuto is not a packable layout.
  codes[2] = 1;
  EXPECT_THROW(igemm_pack(codes, 2, 2, IgemmKernel::kAuto), Error);
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

/// The widest int16 weight code against the top u8 code, `k` times.
Problem top_of_int32_problem(std::size_t k) {
  Problem p;
  p.m = 1;
  p.n = 1;
  p.k = k;
  p.w.assign(k, 32767);
  p.x.assign(k, 255);
  p.scale = {1.0f};
  p.bias = {0.0f};
  return p;
}

TEST(IgemmFitsInt32, BoundaryCodesRunExactInInt32) {
  // 257 products of 32767 · 255 sum to 2,147,385,345: the top of int32.
  const Problem p = top_of_int32_problem(257);
  ASSERT_TRUE(igemm_fits_int32(32767, 255, 257));
  const IgemmPanel panel = igemm_pack(p.w, 1, p.k, IgemmKernel::kVec16);
  const std::vector<std::uint8_t> maps = linear_maps(p.x);
  std::vector<float> got(1);
  igemm_run(float_op(p, panel, maps, got));
  EXPECT_EQ(got[0], static_cast<float>(std::int64_t{32767} * 255 * 257));
}

TEST(IgemmFitsInt32, WrapBeyondTheBoundIsWhyThePredicateGates) {
  // One more such product overflows int32.  The kernel never runs int32
  // past the bound (that would be signed-overflow UB), so demonstrate
  // the wrap in well-defined unsigned arithmetic: the mod-2^32 sum
  // reinterpreted as int32 disagrees with the int64 truth.
  const std::int64_t truth = std::int64_t{32767} * 255 * 258;
  ASSERT_FALSE(igemm_fits_int32(32767, 255, 258));
  const auto wrapped =
      static_cast<std::int32_t>(static_cast<std::uint32_t>(truth));
  EXPECT_NE(static_cast<std::int64_t>(wrapped), truth);
  // So igemm_run refuses the op instead of running it.
  const Problem p = top_of_int32_problem(258);
  const IgemmPanel panel = igemm_pack(p.w, 1, p.k, IgemmKernel::kVec16);
  const std::vector<std::uint8_t> maps = linear_maps(p.x);
  std::vector<float> got(1);
  EXPECT_THROW(igemm_run(float_op(p, panel, maps, got)), Error);
}

// ---- requant epilogue differential ------------------------------------------

/// The fused-datapath spec: every kernel's requant epilogue must equal a
/// naive int64 accumulation followed by `requant_apply` — same integer
/// associativity argument as the float epilogue, now in the multiplier
/// domain.  Sweeps u8 code inputs, output grids, per-column channel
/// mapping, kernels and threads.
TEST(IgemmRequantEpilogue, MatchesNaiveRequantApplyAcrossKernels) {
  Rng rng(0xCC01);
  struct Cfg {
    std::size_t m, n, k;  // m activation rows × n output channels
    std::int32_t max_w, max_x, qmax;
  };
  const Cfg configs[] = {
      {33, 8, 27, 7, 3, 255},      // vec-packed-eligible bounds
      {18, 6, 40, 100, 255, 255},  // full 8-bit input grid
      {21, 5, 16, 40, 255, 15},    // 4-bit output grid: codes clamp at 15
  };
  for (const Cfg& cfg : configs) {
    std::vector<std::int32_t> w(cfg.n * cfg.k), x(cfg.m * cfg.k);
    for (auto& v : w) {
      v = static_cast<std::int32_t>(rng.uniform_int(2 * cfg.max_w + 1)) -
          cfg.max_w;
    }
    for (auto& v : x) {
      v = static_cast<std::int32_t>(rng.uniform_int(cfg.max_x + 1));
    }

    // Realistic per-channel parameters straight from make_requant.
    const std::int64_t bound = std::int64_t{cfg.max_w} * cfg.max_x *
                               static_cast<std::int64_t>(cfg.k);
    std::vector<Requant> rq(cfg.n);
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
          acc += std::int64_t{x[i * cfg.k + p]} *
                 std::int64_t{w[j * cfg.k + p]};
        }
        want[i * cfg.n + j] = requant_apply(acc, rq[j], cfg.qmax);
      }
    }

    const std::int32_t max_abs = igemm_max_abs(w);
    const std::vector<std::uint8_t> maps = linear_maps(x);
    for (IgemmKernel kernel : eligible_kernels(max_abs, cfg.max_x)) {
      const IgemmPanel panel = igemm_pack(w, cfg.n, cfg.k, kernel);
      for (std::size_t threads : {1, 2, 4}) {
        IgemmOp op;
        op.geometry = linear_geometry(cfg.k);
        op.batch = cfg.m;
        op.panel = &panel;
        op.x = maps.data();
        op.x_bound = cfg.max_x;
        op.requant = rq.data();
        op.requant_qmax = cfg.qmax;
        std::vector<std::uint8_t> got(cfg.m * cfg.n, 0xEE);
        op.out8 = got.data();
        igemm_run(op, ctx_for(threads));
        for (std::size_t i = 0; i < want.size(); ++i) {
          ASSERT_EQ(static_cast<std::int32_t>(got[i]), want[i])
              << "kernel=" << igemm_kernel_str(kernel)
              << " threads=" << threads << " qmax=" << cfg.qmax
              << " idx=" << i;
        }
      }
    }
  }
}

/// Linear-layer shape: a small batch of activation rows, requant entries
/// indexed by output column, the weight given depth-major as trained.
TEST(IgemmRequantEpilogue, PerColumnRequantMatchesNaiveForLinearLayers) {
  Rng rng(0xCC02);
  const std::size_t batch = 5, out = 9, k = 31;
  std::vector<std::int32_t> wt(k * out), x(batch * k);
  for (auto& v : wt) {
    v = static_cast<std::int32_t>(rng.uniform_int(31)) - 15;
  }
  for (auto& v : x) {
    v = static_cast<std::int32_t>(rng.uniform_int(256));
  }
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
  // igemm_pack takes the weight as rows×depth (one row per output).
  std::vector<std::int32_t> w_rows(out * k);
  for (std::size_t p = 0; p < k; ++p) {
    for (std::size_t j = 0; j < out; ++j) {
      w_rows[j * k + p] = wt[p * out + j];
    }
  }
  const std::int32_t max_abs = igemm_max_abs(w_rows);
  const std::vector<std::uint8_t> maps = linear_maps(x);
  for (IgemmKernel kernel : eligible_kernels(max_abs, 255)) {
    const IgemmPanel panel = igemm_pack(w_rows, out, k, kernel);
    IgemmOp op;
    op.geometry = linear_geometry(k);
    op.batch = batch;
    op.panel = &panel;
    op.x = maps.data();
    op.x_bound = 255;
    op.requant = rq.data();
    op.requant_qmax = 255;
    std::vector<std::uint8_t> got(batch * out, 0xEE);
    op.out8 = got.data();
    igemm_run(op, ctx_for(2));
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(static_cast<std::int32_t>(got[i]), want[i])
          << "kernel=" << igemm_kernel_str(kernel) << " idx=" << i;
    }
  }
}

}  // namespace
}  // namespace ccq
