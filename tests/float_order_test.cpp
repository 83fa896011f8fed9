// Float order oracle: byte-compares the float kernels that training runs
// (matmul, matmul_tn, Conv2d forward / dX / dW / dbias, the PACT and
// clip activations, BatchNorm2d) against naive scalar loops that spell
// out the order those kernels promise (tensor/gemm.hpp, nn/conv.hpp,
// quant/uniform.hpp, nn/norm.hpp):
//
//   matmul     C[i][j] = Σ_p A[i][p]·B[p][j], p ascending from +0
//   forward    y[n][oc][s] = Σ_p W[oc][p]·cols[p][s], p ascending from
//              +0, then + bias[oc]
//   dX         dcols[p][s] = Σ_oc W[oc][p]·gy[oc][s], oc ascending from
//              +0, then each pixel adds its taps in (c, ky, kx) order
//   dW         each sample's Σ_s gy[oc][s]·cols[p][s], s ascending from
//              +0, added to dW in sample order
//   act        std::clamp(x, 0, α) at 32 bits, α·(round(clamp(x/α, 0,
//              1)·n)/n) below; STE select; dL/dα a double sum in index
//              order
//   batchnorm  per-channel double sums in (n, s) order, then the
//              elementwise expressions in nn/norm.hpp's order
//
// Each reference statement is the scalar expression, so the build's
// contraction flags treat reference and library alike.  Operands carry
// exact zeros of both signs, padding taps multiply by zero, and the
// shapes put rows, columns and depth on and around the register tile
// and past one cache block, at 1 and 4 threads.  The activations also
// see NaN, ±Inf, subnormals and every rounding tie of their grid; a NaN
// output matches any NaN.
#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "ccq/common/exec.hpp"
#include "ccq/common/rng.hpp"
#include "ccq/common/workspace.hpp"
#include "ccq/models/resnet.hpp"
#include "ccq/models/simple.hpp"
#include "ccq/nn/conv.hpp"
#include "ccq/nn/norm.hpp"
#include "ccq/quant/act_quant.hpp"
#include "ccq/tensor/gemm.hpp"

namespace ccq {
namespace {

/// Normal draws with exact +0 and −0 mixed in (one in eight each).
void fill_values(float* v, std::size_t n, Rng& rng) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t r = rng.uniform_int(8);
    v[i] = r == 0 ? 0.0f : r == 1 ? -0.0f : static_cast<float>(rng.normal());
  }
}

Tensor values(Shape shape, Rng& rng) {
  Tensor t(std::move(shape));
  fill_values(t.data().data(), t.numel(), rng);
  return t;
}

/// Index of the first byte-level mismatch, or -1.  Any NaN matches any
/// NaN.
long first_mismatch(const float* got, const float* want, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (std::isnan(got[i]) && std::isnan(want[i])) continue;
    if (std::memcmp(got + i, want + i, sizeof(float)) != 0) {
      return static_cast<long>(i);
    }
  }
  return -1;
}

void expect_bytes(const Tensor& got, const std::vector<float>& want,
                  const std::string& what) {
  ASSERT_EQ(got.numel(), want.size()) << what;
  const long at = first_mismatch(got.data().data(), want.data(), want.size());
  EXPECT_EQ(at, -1) << what << ": element " << at << " is "
                    << (at < 0 ? 0.0f : got.data()[at]) << ", the order gives "
                    << (at < 0 ? 0.0f : want[at]);
}

// ---- matmul / matmul_tn ---------------------------------------------------

std::vector<float> reference_matmul(const Tensor& a, const Tensor& b) {
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  std::vector<float> c(m * n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::size_t p = 0; p < k; ++p) {
        acc += a.data()[i * k + p] * b.data()[p * n + j];
      }
      c[i * n + j] = acc;
    }
  }
  return c;
}

/// C = Aᵀ·B with A stored k-major (k × m).
std::vector<float> reference_matmul_tn(const Tensor& a, const Tensor& b) {
  const std::size_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  std::vector<float> c(m * n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::size_t p = 0; p < k; ++p) {
        acc += a.data()[p * m + i] * b.data()[p * n + j];
      }
      c[i * n + j] = acc;
    }
  }
  return c;
}

struct MatmulShape {
  std::size_t m, k, n;
};

std::vector<MatmulShape> matmul_shapes() {
  std::vector<MatmulShape> shapes;
  // Rows and columns on and around the 4×8 tile, depth around one
  // 128-deep slice.
  for (std::size_t m : {1, 3, 4, 5, 8, 17}) {
    for (std::size_t n : {1, 3, 4, 7, 8, 9, 17}) {
      for (std::size_t k : {1, 5, 128, 129}) shapes.push_back({m, k, n});
    }
  }
  // Past one task in every dimension (16 rows, 128 columns, 128 deep).
  shapes.push_back({70, 300, 600});
  shapes.push_back({33, 257, 130});
  return shapes;
}

TEST(FloatOrderTest, MatmulFollowsAscendingDepthFromZero) {
  Rng rng(101);
  for (std::size_t threads : {1, 4}) {
    ExecContext ctx(threads);
    for (const MatmulShape& s : matmul_shapes()) {
      const Tensor a = values({s.m, s.k}, rng);
      const Tensor b = values({s.k, s.n}, rng);
      std::ostringstream what;
      what << "matmul " << s.m << "x" << s.k << "x" << s.n << " at "
           << threads << " threads";
      expect_bytes(matmul(a, b, ctx), reference_matmul(a, b), what.str());
    }
  }
}

TEST(FloatOrderTest, MatmulTnFollowsAscendingDepthFromZero) {
  Rng rng(102);
  for (std::size_t threads : {1, 4}) {
    ExecContext ctx(threads);
    for (const MatmulShape& s : matmul_shapes()) {
      const Tensor a = values({s.k, s.m}, rng);
      const Tensor b = values({s.k, s.n}, rng);
      std::ostringstream what;
      what << "matmul_tn " << s.m << "x" << s.k << "x" << s.n << " at "
           << threads << " threads";
      expect_bytes(matmul_tn(a, b, ctx), reference_matmul_tn(a, b),
                   what.str());
    }
  }
}

// ---- Conv2d -------------------------------------------------------------

struct ConvCase {
  std::size_t in, out, kernel, stride, pad, h, w, batch, threads;
  bool bias;

  std::size_t oh() const { return (h + 2 * pad - kernel) / stride + 1; }
  std::size_t ow() const { return (w + 2 * pad - kernel) / stride + 1; }
  std::string str() const {
    std::ostringstream os;
    os << in << "->" << out << " k" << kernel << " s" << stride << " p" << pad
       << " on " << h << "x" << w << ", batch " << batch << ", " << threads
       << " threads" << (bias ? ", bias" : "");
    return os.str();
  }
};

struct ConvResult {
  std::vector<float> y, gx, gw, gb;
};

/// The four conv outputs in the documented order, one sample at a time.
ConvResult reference_conv(const ConvCase& c, const Tensor& x, const Tensor& w,
                          const Tensor& bias, const Tensor& gy) {
  const std::size_t oh = c.oh(), ow = c.ow(), spatial = oh * ow;
  const std::size_t kk = c.kernel * c.kernel, patch = c.in * kk;
  const std::size_t image = c.in * c.h * c.w;
  const float* wp = w.data().data();
  ConvResult r;
  r.y.resize(c.batch * c.out * spatial);
  r.gx.assign(c.batch * image, 0.0f);
  r.gw.assign(c.out * patch, 0.0f);
  r.gb.assign(c.out, 0.0f);
  std::vector<float> cols(patch * spatial), dcols(patch * spatial);
  // Input pixel behind (patch row, output pixel), or -1 at padding.
  auto source = [&](std::size_t p, std::size_t s) -> long {
    const std::size_t ch = p / kk, ky = (p / c.kernel) % c.kernel,
                      kx = p % c.kernel;
    const long iy = static_cast<long>((s / ow) * c.stride + ky) -
                    static_cast<long>(c.pad);
    const long ix = static_cast<long>((s % ow) * c.stride + kx) -
                    static_cast<long>(c.pad);
    if (iy < 0 || ix < 0 || iy >= static_cast<long>(c.h) ||
        ix >= static_cast<long>(c.w)) {
      return -1;
    }
    return static_cast<long>(ch * c.h * c.w) + iy * static_cast<long>(c.w) +
           ix;
  };
  for (std::size_t n = 0; n < c.batch; ++n) {
    const float* xn = x.data().data() + n * image;
    const float* gyn = gy.data().data() + n * c.out * spatial;
    for (std::size_t p = 0; p < patch; ++p) {
      for (std::size_t s = 0; s < spatial; ++s) {
        const long at = source(p, s);
        cols[p * spatial + s] = at < 0 ? 0.0f : xn[at];
      }
    }
    for (std::size_t oc = 0; oc < c.out; ++oc) {
      for (std::size_t s = 0; s < spatial; ++s) {
        float acc = 0.0f;
        for (std::size_t p = 0; p < patch; ++p) {
          acc += wp[oc * patch + p] * cols[p * spatial + s];
        }
        r.y[(n * c.out + oc) * spatial + s] =
            c.bias ? acc + bias.data()[oc] : acc;
      }
    }
    for (std::size_t p = 0; p < patch; ++p) {
      for (std::size_t s = 0; s < spatial; ++s) {
        float acc = 0.0f;
        for (std::size_t oc = 0; oc < c.out; ++oc) {
          acc += wp[oc * patch + p] * gyn[oc * spatial + s];
        }
        dcols[p * spatial + s] = acc;
      }
    }
    // Rows run in (c, ky, kx) order, so every pixel adds its taps in it.
    for (std::size_t p = 0; p < patch; ++p) {
      for (std::size_t s = 0; s < spatial; ++s) {
        const long at = source(p, s);
        if (at >= 0) r.gx[n * image + at] += dcols[p * spatial + s];
      }
    }
    for (std::size_t oc = 0; oc < c.out; ++oc) {
      for (std::size_t p = 0; p < patch; ++p) {
        float acc = 0.0f;
        for (std::size_t s = 0; s < spatial; ++s) {
          acc += gyn[oc * spatial + s] * cols[p * spatial + s];
        }
        r.gw[oc * patch + p] += acc;
      }
      float acc = 0.0f;
      for (std::size_t s = 0; s < spatial; ++s) acc += gyn[oc * spatial + s];
      r.gb[oc] += acc;
    }
  }
  return r;
}

void check_conv(const ConvCase& c, std::uint64_t seed) {
  SCOPED_TRACE(c.str());
  Rng rng(seed);
  nn::Conv2d conv(c.in, c.out, c.kernel, c.stride, c.pad, c.bias, rng);
  fill_values(conv.weight().value.data().data(), conv.weight().value.numel(),
              rng);
  if (c.bias) {
    fill_values(conv.bias().value.data().data(), c.out, rng);
  }
  const Tensor x = values({c.batch, c.in, c.h, c.w}, rng);
  const Tensor gy = values({c.batch, c.out, c.oh(), c.ow()}, rng);
  const ConvResult want =
      reference_conv(c, x, conv.weight().value, conv.bias().value, gy);

  ExecContext ctx(c.threads);
  conv.set_exec_context(&ctx);
  Workspace ws;
  const Tensor y = conv.forward(x, ws);
  for (auto* p : conv.parameters()) p->zero_grad();
  const Tensor gx = conv.backward(gy, ws);
  expect_bytes(y, want.y, "forward");
  expect_bytes(gx, want.gx, "dX");
  expect_bytes(conv.weight().grad, want.gw, "dW");
  if (c.bias) expect_bytes(conv.bias().grad, want.gb, "dbias");
}

TEST(FloatOrderTest, ConvGeometrySweep) {
  // kernel {1,3,5} × stride {1,2,3} × pad {0,1,2} on odd maps and a
  // single pixel, channel counts cycling through values on and around
  // the tile widths.
  const std::size_t channels[] = {1, 3, 4, 5, 8, 9, 17};
  std::size_t index = 0;
  for (std::size_t kernel : {1, 3, 5}) {
    for (std::size_t stride : {1, 2, 3}) {
      for (std::size_t pad : {0, 1, 2}) {
        // 1×1 with a 5×5 kernel: taps whose padding covers the whole
        // (single-pixel) output.
        for (auto [h, w] : {std::pair<std::size_t, std::size_t>{7, 5},
                            {9, 4},
                            {1, 1}}) {
          if (h + 2 * pad < kernel || w + 2 * pad < kernel) continue;
          const ConvCase c{.in = channels[index % 7],
                           .out = channels[(index * 3 + 2) % 7],
                           .kernel = kernel,
                           .stride = stride,
                           .pad = pad,
                           .h = h,
                           .w = w,
                           .batch = index % 2 == 0 ? 1u : 3u,
                           .threads = (index / 2) % 2 == 0 ? 1u : 4u,
                           .bias = index % 3 == 0};
          check_conv(c, 200 + index);
          ++index;
        }
      }
    }
  }
}

TEST(FloatOrderTest, ConvChannelSweep) {
  // Every in × out pair from the tile-width list, 3×3 stride 1 pad 1.
  const std::size_t channels[] = {1, 3, 4, 5, 8, 9, 17};
  std::size_t index = 0;
  for (std::size_t in : channels) {
    for (std::size_t out : channels) {
      const ConvCase c{.in = in, .out = out, .kernel = 3, .stride = 1,
                       .pad = 1, .h = 7, .w = 5, .batch = 3,
                       .threads = index % 2 == 0 ? 1u : 4u,
                       .bias = index % 2 == 1};
      check_conv(c, 400 + index);
      ++index;
    }
  }
}

TEST(FloatOrderTest, ConvBatchSweep) {
  // batch {1, 3, 32} × threads {1, 4}.  The 17-channel 16×16 layer lowers
  // 39168 floats per sample, so a batch of 32 spans several sample groups
  // with a short last one; the small layers fold the whole batch.
  const ConvCase layers[] = {
      {.in = 5, .out = 9, .kernel = 3, .stride = 1, .pad = 1, .h = 9,
       .w = 4, .batch = 1, .threads = 1, .bias = false},
      {.in = 3, .out = 4, .kernel = 3, .stride = 2, .pad = 1, .h = 16,
       .w = 16, .batch = 1, .threads = 1, .bias = true},
      {.in = 17, .out = 9, .kernel = 3, .stride = 1, .pad = 1, .h = 16,
       .w = 16, .batch = 1, .threads = 1, .bias = false},
  };
  std::size_t index = 0;
  for (ConvCase c : layers) {
    for (std::size_t batch : {1, 3, 32}) {
      for (std::size_t threads : {1, 4}) {
        c.batch = batch;
        c.threads = threads;
        check_conv(c, 600 + index++);
      }
    }
  }
}

// ---- PACT and clip activations --------------------------------------------

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

/// The parent's per-element forward: std::clamp at 32 bits, else
/// quantize_unsigned's clip·(round(clamp(x/clip, 0, 1)·n)/n).
float reference_act(float x, int bits, float clip) {
  if (bits >= 32) return std::clamp(x, 0.0f, clip);
  const float n = static_cast<float>((1u << bits) - 1u);
  const float clipped = std::clamp(x / clip, 0.0f, 1.0f);
  return clip * (std::round(clipped * n) / n);
}

/// Inputs that stress the clamp, the STE mask and the rounding:
/// {NaN, ±Inf, ±0, ±FLT_TRUE_MIN, FLT_MAX, α} and one ulp either side
/// of each; below 32 bits, for each visited grid level k, the x whose
/// scaled value (x/α)·n is exactly k + ½ when one exists (else the
/// nearest), and one ulp either side.  Levels: all of them up to 16
/// bits, an even spread plus both ends beyond.
std::vector<float> act_inputs(int bits, float clip) {
  std::vector<float> v;
  auto around = [&v](float c) {
    v.push_back(std::nextafter(c, -kInf));
    v.push_back(c);
    v.push_back(std::nextafter(c, kInf));
  };
  for (float c : {kNaN, kInf, -kInf, 0.0f, -0.0f, FLT_TRUE_MIN,
                  -FLT_TRUE_MIN, FLT_MAX, clip}) {
    around(c);
  }
  if (bits >= 32) return v;
  const std::uint64_t levels = (std::uint64_t{1} << bits) - 1;
  const float n = static_cast<float>(levels);
  const std::uint64_t step = bits <= 16 ? 1 : levels / 4096;
  auto visit = [&](std::uint64_t k) {
    const float tie = static_cast<float>(k) + 0.5f;
    float x = static_cast<float>((static_cast<double>(k) + 0.5) /
                                 static_cast<double>(levels) * clip);
    float best = x;
    for (int i = 0; i < 16; ++i) {
      if ((best / clip) * n == tie) break;
      best = std::nextafter(best, (best / clip) * n < tie ? kInf : -kInf);
    }
    around((best / clip) * n == tie ? best : x);
  };
  for (std::uint64_t k = 0; k < levels; k += step) visit(k);
  for (std::uint64_t k = levels > 16 ? levels - 16 : 0; k < levels; ++k) {
    visit(k);
  }
  return v;
}

/// Upstream gradients: ±Inf, NaN and ±0 among normal draws.
Tensor act_grads(std::size_t n, Rng& rng) {
  Tensor g({n});
  const float special[] = {kInf, -kInf, kNaN, 0.0f, -0.0f};
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t r = rng.uniform_int(10);
    g.data()[i] =
        r < 5 ? special[r] : static_cast<float>(rng.normal());
  }
  return g;
}

/// One forward and backward of `act` (at `bits`, clip `clip`) on `x`,
/// byte-compared with the parent's loops; PACT's dL/dα too.
void check_act(quant::QuantAct& act, quant::PactActivation* pact, int bits,
               float clip, const Tensor& x, const Tensor& gy,
               const std::string& what) {
  Workspace ws;
  act.set_training(true);
  act.set_bits(bits);
  const std::size_t n = x.numel();
  std::vector<float> want_y(n), want_g(n);
  double alpha_grad = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const float xi = x.data()[i], gi = gy.data()[i];
    want_y[i] = reference_act(xi, bits, clip);
    if (xi >= clip) {
      alpha_grad += gi;
      want_g[i] = 0.0f;
    } else if (xi <= 0.0f) {
      want_g[i] = 0.0f;
    } else {
      want_g[i] = gi;
    }
  }
  expect_bytes(act.forward(x, ws), want_y, what + " forward");
  if (pact != nullptr) pact->alpha_param().zero_grad();
  expect_bytes(act.backward(gy, ws), want_g, what + " backward");
  if (pact != nullptr) {
    float want_alpha = 0.0f;
    want_alpha += static_cast<float>(alpha_grad);
    expect_bytes(pact->alpha_param().grad, {want_alpha}, what + " dL/dalpha");
  }
}

TEST(FloatOrderTest, ActivationsMatchTheScalarLoops) {
  // α 1e-4 sits below PACT's 1e-3 floor, so PACT clips at 1e-3.
  Rng rng(700);
  for (int bits : {32, 1, 2, 3, 4, 8, 16, 24, 31}) {
    for (float alpha : {6.0f, 1.0f, 0.37f, 1e-4f}) {
      quant::PactActivation pact(alpha);
      quant::ClipActQuant clip_act(alpha);
      const float pact_clip = std::max(alpha, 1e-3f);
      for (auto [act, pa, clip] :
           {std::tuple<quant::QuantAct*, quant::PactActivation*, float>{
                &pact, &pact, pact_clip},
            {&clip_act, nullptr, alpha}}) {
        const std::vector<float> pool = act_inputs(bits, clip);
        std::ostringstream tag;
        tag << act->type_name() << " at " << bits << " bits, clip " << clip;
        // Short inputs put every special value in body and tail lanes;
        // the whole pool and 4099 elements run long loops with a tail.
        for (std::size_t size : {1, 3, 4, 5, 7, 8, 9, 17, 4099}) {
          const std::size_t span = size == 4099 ? size : 32 * size;
          for (std::size_t off = 0; off + size <= std::max(span, size);
               off += size) {
            Tensor x({size});
            for (std::size_t i = 0; i < size; ++i) {
              x.data()[i] = pool[(off + i) % pool.size()];
            }
            check_act(*act, pa, bits, clip, x, act_grads(size, rng),
                      tag.str() + ", size " + std::to_string(size));
          }
        }
        Tensor x({pool.size()}, std::vector<float>(pool));
        check_act(*act, pa, bits, clip, x, act_grads(pool.size(), rng),
                  tag.str() + ", whole pool");
      }
    }
  }
}

TEST(FloatOrderTest, NanAlphaThrowsBelowThirtyTwoBits) {
  quant::PactActivation pact(1.0f);
  pact.alpha_param().value.at(0) = kNaN;
  Workspace ws;
  const Tensor x({5}, 0.5f);
  pact.set_bits(8);
  EXPECT_THROW(pact.forward(x, ws), Error);
  // At 32 bits there is no grid, so nothing to check: x ≥ 0 passes.
  pact.set_bits(32);
  expect_bytes(pact.forward(x, ws), std::vector<float>(5, 0.5f),
               "NaN alpha at 32 bits");
}

// ---- BatchNorm2d --------------------------------------------------------

struct NormResult {
  std::vector<float> y, running_mean, running_var, gx, dgamma, dbeta, eval;
};

/// The parent's BatchNorm2d, one channel at a time: training forward,
/// backward, then an eval forward on the updated running statistics.
NormResult reference_norm(const Tensor& x, const Tensor& gy,
                          const std::vector<float>& gamma,
                          const std::vector<float>& beta,
                          std::vector<float> rmean, std::vector<float> rvar,
                          float momentum, float eps) {
  const std::size_t n = x.dim(0), channels = x.dim(1);
  const std::size_t plane = x.dim(2) * x.dim(3), count = n * plane;
  const float* xp = x.data().data();
  const float* gp = gy.data().data();
  NormResult r;
  r.y.resize(x.numel());
  r.gx.resize(x.numel());
  r.eval.resize(x.numel());
  r.dgamma.assign(channels, 0.0f);
  r.dbeta.assign(channels, 0.0f);
  std::vector<float> xhat(x.numel());
  for (std::size_t c = 0; c < channels; ++c) {
    double sum = 0.0, sqsum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const float* src = xp + (i * channels + c) * plane;
      for (std::size_t s = 0; s < plane; ++s) {
        sum += src[s];
        sqsum += static_cast<double>(src[s]) * src[s];
      }
    }
    const double mean = sum / static_cast<double>(count);
    const double var =
        std::max(0.0, sqsum / static_cast<double>(count) - mean * mean);
    const float inv_std = static_cast<float>(1.0 / std::sqrt(var + eps));
    rmean[c] = (1.0f - momentum) * rmean[c] +
               momentum * static_cast<float>(mean);
    rvar[c] = (1.0f - momentum) * rvar[c] +
              momentum * static_cast<float>(var);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t base = (i * channels + c) * plane;
      for (std::size_t s = 0; s < plane; ++s) {
        const float xhv =
            (xp[base + s] - static_cast<float>(mean)) * inv_std;
        xhat[base + s] = xhv;
        r.y[base + s] = gamma[c] * xhv + beta[c];
      }
    }
    double sum_gy = 0.0, sum_gy_xhat = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t base = (i * channels + c) * plane;
      for (std::size_t s = 0; s < plane; ++s) {
        sum_gy += gp[base + s];
        sum_gy_xhat += static_cast<double>(gp[base + s]) * xhat[base + s];
      }
    }
    r.dgamma[c] += static_cast<float>(sum_gy_xhat);
    r.dbeta[c] += static_cast<float>(sum_gy);
    const float g_over_std = gamma[c] * inv_std;
    const float fcount = static_cast<float>(count);
    const float mean_gy = static_cast<float>(sum_gy) / fcount;
    const float mean_gy_xhat = static_cast<float>(sum_gy_xhat) / fcount;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t base = (i * channels + c) * plane;
      for (std::size_t s = 0; s < plane; ++s) {
        r.gx[base + s] = g_over_std * (gp[base + s] - mean_gy -
                                       xhat[base + s] * mean_gy_xhat);
      }
    }
    const float eval_inv_std = 1.0f / std::sqrt(rvar[c] + eps);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t base = (i * channels + c) * plane;
      for (std::size_t s = 0; s < plane; ++s) {
        r.eval[base + s] =
            gamma[c] * (xp[base + s] - rmean[c]) * eval_inv_std + beta[c];
      }
    }
  }
  r.running_mean = std::move(rmean);
  r.running_var = std::move(rvar);
  return r;
}

std::vector<float> as_vector(const Tensor& t) {
  return {t.data().begin(), t.data().end()};
}

TEST(FloatOrderTest, BatchNormMatchesTheScalarLoops) {
  // C {1, 3, 4, 5} around the four side-by-side channel sums, planes 1, 4
  // and 7×5 (vector tails), batches 1 and 3.
  Rng rng(800);
  for (std::size_t channels : {1, 3, 4, 5}) {
    for (auto [h, w] : {std::pair<std::size_t, std::size_t>{1, 1},
                        {2, 2},
                        {7, 5}}) {
      for (std::size_t batch : {1, 3}) {
        std::ostringstream what;
        what << "BatchNorm2d C " << channels << " on " << h << "x" << w
             << ", batch " << batch;
        SCOPED_TRACE(what.str());
        const float momentum = 0.1f, eps = 1e-5f;
        nn::BatchNorm2d bn(channels, momentum, eps);
        fill_values(bn.gamma().value.data().data(), channels, rng);
        fill_values(bn.beta().value.data().data(), channels, rng);
        const auto buffers = bn.buffers();  // running mean, running var
        Tensor& rmean = *buffers[0].second;
        Tensor& rvar = *buffers[1].second;
        for (std::size_t c = 0; c < channels; ++c) {
          rmean.at(c) = static_cast<float>(rng.normal());
          rvar.at(c) = static_cast<float>(rng.uniform(0.5, 2.0));
        }
        const Tensor x = values({batch, channels, h, w}, rng);
        const Tensor gy = values({batch, channels, h, w}, rng);
        const NormResult want =
            reference_norm(x, gy, as_vector(bn.gamma().value),
                           as_vector(bn.beta().value), as_vector(rmean),
                           as_vector(rvar), momentum, eps);

        Workspace ws;
        bn.set_training(true);
        expect_bytes(bn.forward(x, ws), want.y, "train forward");
        expect_bytes(bn.running_mean(), want.running_mean, "running mean");
        expect_bytes(bn.running_var(), want.running_var, "running var");
        bn.gamma().zero_grad();
        bn.beta().zero_grad();
        expect_bytes(bn.backward(gy, ws), want.gx, "dX");
        expect_bytes(bn.gamma().grad, want.dgamma, "dgamma");
        expect_bytes(bn.beta().grad, want.dbeta, "dbeta");
        bn.set_training(false);
        expect_bytes(bn.forward(x, ws), want.eval, "eval forward");
      }
    }
  }
}

// ---- parameter-only backward ---------------------------------------------

/// model.backward (Module::backward_params: the first conv forms no dX,
/// a parameterless prefix runs no backward) must leave every parameter
/// gradient byte-identical to the full net().backward.
TEST(FloatOrderTest, ParameterOnlyBackwardLeavesTheSameGradients) {
  models::ModelConfig mc;
  mc.num_classes = 10;
  mc.image_size = 16;
  mc.width_multiplier = 0.25f;
  mc.seed = 7;
  const quant::QuantFactory factory{.policy = quant::Policy::kPact};
  const quant::BitLadder ladder({8, 4, 2});
  using Builder = models::QuantModel (*)(const models::ModelConfig&,
                                         const quant::QuantFactory&,
                                         const quant::BitLadder&);
  const std::pair<const char*, Builder> builders[] = {
      {"SimpleCNN", &models::make_simple_cnn},
      {"ResNet-20", &models::make_resnet20},
      {"MLP",
       [](const models::ModelConfig& c, const quant::QuantFactory& f,
          const quant::BitLadder& l) { return models::make_mlp(c, f, l, 16); }},
  };
  Rng rng(900);
  for (const auto& [name, build] : builders) {
    for (std::size_t threads : {1, 4}) {
      SCOPED_TRACE(std::string(name) + " at " + std::to_string(threads) +
                   " threads");
      ExecContext ctx(threads);
      const Tensor x = values({3, 3, 16, 16}, rng);
      const Tensor g = values({3, 10}, rng);
      auto full = build(mc, factory, ladder);
      auto params_only = build(mc, factory, ladder);
      Workspace ws;
      for (models::QuantModel* model : {&full, &params_only}) {
        model->net().set_exec_context(&ctx);
        model->set_training(true);
        ws.recycle(model->forward(x, ws));
        for (auto* p : model->parameters()) p->zero_grad();
      }
      ws.recycle(full.net().backward(g, ws));
      params_only.backward(g, ws);
      const auto want = full.parameters();
      const auto got = params_only.parameters();
      ASSERT_EQ(want.size(), got.size());
      for (std::size_t i = 0; i < want.size(); ++i) {
        expect_bytes(got[i]->grad, as_vector(want[i]->grad), want[i]->name);
      }
    }
  }
}

}  // namespace
}  // namespace ccq
