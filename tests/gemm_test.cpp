// Tests for the GEMM kernel and the im2col/col2im lowerings.
#include <gtest/gtest.h>

#include "ccq/tensor/gemm.hpp"
#include "ccq/tensor/im2col.hpp"

namespace ccq {
namespace {

/// Reference O(n³) matmul for cross-checking the blocked kernel.
Tensor naive_matmul(const Tensor& a, const Tensor& b) {
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor c({m, n});
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::size_t p = 0; p < k; ++p) acc += a(i, p) * b(p, j);
      c(i, j) = acc;
    }
  }
  return c;
}

TEST(GemmTest, MatchesNaiveSmall) {
  Tensor a({2, 3}, std::vector<float>{1, 2, 3, 4, 5, 6});
  Tensor b({3, 2}, std::vector<float>{7, 8, 9, 10, 11, 12});
  Tensor c = matmul(a, b);
  EXPECT_FLOAT_EQ(c(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(c(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(c(1, 1), 154.0f);
}

TEST(GemmTest, MatchesNaiveOnOddSizes) {
  Rng rng(1);
  // Sizes straddle the blocking boundaries (64/128/256).
  for (auto [m, k, n] : {std::tuple<int, int, int>{65, 130, 257},
                         {1, 1, 1},
                         {7, 300, 3},
                         {128, 64, 256}}) {
    Tensor a = Tensor::randn({static_cast<std::size_t>(m),
                              static_cast<std::size_t>(k)},
                             rng);
    Tensor b = Tensor::randn({static_cast<std::size_t>(k),
                              static_cast<std::size_t>(n)},
                             rng);
    EXPECT_LT(max_abs_diff(matmul(a, b), naive_matmul(a, b)), 1e-3f)
        << m << "x" << k << "x" << n;
  }
}

TEST(GemmTest, ShapeValidation) {
  Tensor a({2, 3});
  Tensor b({4, 2});
  EXPECT_THROW(matmul(a, b), Error);
  Tensor c({2, 3, 1});
  EXPECT_THROW(matmul(c, a), Error);
}

TEST(GemmTest, TransposedVariantsAgree) {
  Rng rng(2);
  Tensor a = Tensor::randn({5, 7}, rng);
  Tensor b = Tensor::randn({5, 6}, rng);
  // matmul_tn(a, b) == aᵀ·b
  Tensor expected = naive_matmul(transpose2d(a), b);
  EXPECT_LT(max_abs_diff(matmul_tn(a, b), expected), 1e-4f);

  Tensor d = Tensor::randn({6, 7}, rng);
  // matmul_nt(aᵀ·shape..., d) == x·dᵀ with x (5×7), d (6×7)
  Tensor x = Tensor::randn({5, 7}, rng);
  Tensor expected2 = naive_matmul(x, transpose2d(d));
  EXPECT_LT(max_abs_diff(matmul_nt(x, d), expected2), 1e-4f);
}

TEST(GemmTest, TransposeRoundTrip) {
  Rng rng(3);
  Tensor a = Tensor::randn({4, 9}, rng);
  EXPECT_EQ(max_abs_diff(transpose2d(transpose2d(a)), a), 0.0f);
}

TEST(ConvGeometryTest, OutputDims) {
  ConvGeometry g{.in_channels = 3, .in_h = 32, .in_w = 32, .kernel = 3,
                 .stride = 1, .pad = 1};
  EXPECT_EQ(g.out_h(), 32u);
  EXPECT_EQ(g.out_w(), 32u);
  g.stride = 2;
  EXPECT_EQ(g.out_h(), 16u);
  EXPECT_EQ(g.patch_size(), 27u);
}

TEST(ConvGeometryTest, KernelLargerThanInputThrows) {
  ConvGeometry g{.in_channels = 1, .in_h = 2, .in_w = 2, .kernel = 5,
                 .stride = 1, .pad = 0};
  EXPECT_THROW(g.out_h(), Error);
}

TEST(Im2ColTest, IdentityKernelCopiesImage) {
  // 1×1 kernel, stride 1, no pad: columns == image.
  ConvGeometry g{.in_channels = 2, .in_h = 3, .in_w = 3, .kernel = 1,
                 .stride = 1, .pad = 0};
  std::vector<float> image(18);
  for (std::size_t i = 0; i < image.size(); ++i) image[i] = static_cast<float>(i);
  std::vector<float> cols(g.patch_size() * g.out_spatial());
  im2col(image.data(), g, 1, cols.data(), g.out_spatial());
  for (std::size_t i = 0; i < image.size(); ++i) {
    EXPECT_EQ(cols[i], image[i]);
  }
}

TEST(Im2ColTest, PaddingProducesZeros) {
  ConvGeometry g{.in_channels = 1, .in_h = 2, .in_w = 2, .kernel = 3,
                 .stride = 1, .pad = 1};
  std::vector<float> image{1, 2, 3, 4};
  std::vector<float> cols(g.patch_size() * g.out_spatial());
  im2col(image.data(), g, 1, cols.data(), g.out_spatial());
  // Kernel position (0,0) at output (0,0) reads the padded corner.
  EXPECT_EQ(cols[0], 0.0f);
  // Centre kernel position (1,1) at output (0,0) reads pixel (0,0).
  const std::size_t centre_row = 1 * 3 + 1;
  EXPECT_EQ(cols[centre_row * g.out_spatial() + 0], 1.0f);
}

TEST(Im2ColTest, Col2ImIsAdjoint) {
  // <im2col(x), y> == <x, col2im(y)> — the defining adjoint identity,
  // which is exactly what conv backward relies on.
  Rng rng(4);
  ConvGeometry g{.in_channels = 3, .in_h = 6, .in_w = 5, .kernel = 3,
                 .stride = 2, .pad = 1};
  const std::size_t img_n = g.in_channels * g.in_h * g.in_w;
  const std::size_t col_n = g.patch_size() * g.out_spatial();
  Tensor x = Tensor::randn({img_n}, rng);
  Tensor y = Tensor::randn({col_n}, rng);
  std::vector<float> cols(col_n);
  im2col(x.data().data(), g, 1, cols.data(), g.out_spatial());
  double lhs = 0.0;
  for (std::size_t i = 0; i < col_n; ++i) lhs += cols[i] * y(i);
  std::vector<float> back(img_n, 0.0f);
  col2im(y.data().data(), g.out_spatial(), g, 1, back.data());
  double rhs = 0.0;
  for (std::size_t i = 0; i < img_n; ++i) rhs += x(i) * back[i];
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

TEST(Im2ColTest, BatchedPanelHoldsEachImageAtItsColumnOffset) {
  // A batch lowered into one panel with a wider leading dimension puts
  // image n's columns at [n·S, (n+1)·S) of every row, leaves the columns
  // past the batch untouched, and col2im reads the same layout back.
  Rng rng(8);
  const ConvGeometry g{.in_channels = 2, .in_h = 5, .in_w = 4, .kernel = 3,
                       .stride = 2, .pad = 2};
  const std::size_t batch = 3, s = g.out_spatial(), ld = batch * s + 3;
  const std::size_t img_n = g.in_channels * g.in_h * g.in_w;
  Tensor x = Tensor::randn({batch * img_n}, rng);
  std::vector<float> panel(g.patch_size() * ld, -7.0f);
  im2col(x.data().data(), g, batch, panel.data(), ld);
  std::vector<float> back(batch * img_n, 0.0f);
  col2im(panel.data(), ld, g, batch, back.data());
  for (std::size_t n = 0; n < batch; ++n) {
    std::vector<float> cols(g.patch_size() * s);
    im2col(x.data().data() + n * img_n, g, 1, cols.data(), s);
    std::vector<float> one(img_n, 0.0f);
    col2im(cols.data(), s, g, 1, one.data());
    for (std::size_t row = 0; row < g.patch_size(); ++row) {
      for (std::size_t j = 0; j < s; ++j) {
        ASSERT_EQ(panel[row * ld + n * s + j], cols[row * s + j])
            << "image " << n << " row " << row << " col " << j;
      }
      for (std::size_t j = batch * s; j < ld; ++j) {
        ASSERT_EQ(panel[row * ld + j], -7.0f) << "row " << row;
      }
    }
    for (std::size_t i = 0; i < img_n; ++i) {
      ASSERT_EQ(back[n * img_n + i], one[i]) << "image " << n << " pixel " << i;
    }
  }
}

}  // namespace
}  // namespace ccq
