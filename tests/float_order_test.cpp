// Float order oracle: byte-compares the float kernels that training runs
// (matmul, matmul_tn, and Conv2d forward / dX / dW / dbias) against naive
// scalar loops that spell out the accumulation order those kernels
// promise (tensor/gemm.hpp, nn/conv.hpp):
//
//   matmul     C[i][j] = Σ_p A[i][p]·B[p][j], p ascending from +0
//   forward    y[n][oc][s] = Σ_p W[oc][p]·cols[p][s], p ascending from
//              +0, then + bias[oc]
//   dX         dcols[p][s] = Σ_oc W[oc][p]·gy[oc][s], oc ascending from
//              +0, then each pixel adds its taps in (c, ky, kx) order
//   dW         each sample's Σ_s gy[oc][s]·cols[p][s], s ascending from
//              +0, added to dW in sample order
//
// Each reference statement is the scalar `acc += a * b`, so the build's
// contraction flags treat reference and library alike.  Operands carry
// exact zeros of both signs, padding taps multiply by zero, and the
// shapes put rows, columns and depth on and around the register tile
// and past one cache block, at 1 and 4 threads.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "ccq/common/exec.hpp"
#include "ccq/common/rng.hpp"
#include "ccq/common/workspace.hpp"
#include "ccq/nn/conv.hpp"
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

/// Index of the first byte-level mismatch, or -1.
long first_mismatch(const float* got, const float* want, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
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

}  // namespace
}  // namespace ccq
