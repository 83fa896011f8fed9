#include "ccq/tensor/im2col.hpp"

namespace ccq {

namespace {

/// The float training path's lowering body.
template <typename T>
void im2col_impl(const T* image, const ConvGeometry& g, T* columns,
                 const ExecContext& ctx) {
  const std::size_t oh = g.out_h();
  const std::size_t ow = g.out_w();
  const std::size_t spatial = oh * ow;
  const std::size_t kk = g.kernel * g.kernel;
  // One task item per column-matrix row (c, ky, kx); rows write disjoint
  // `columns` slices.  Grain keeps per-chunk work meaningful for the
  // tiny kernels (3×3 → 9 rows per channel).
  parallel_for(ctx, g.in_channels * kk, kk,
               [&](std::size_t row0, std::size_t row1) {
    for (std::size_t row = row0; row < row1; ++row) {
      const std::size_t c = row / kk;
      const std::size_t ky = (row / g.kernel) % g.kernel;
      const std::size_t kx = row % g.kernel;
      const T* plane = image + c * g.in_h * g.in_w;
      T* out = columns + row * spatial;
      for (std::size_t oy = 0; oy < oh; ++oy) {
        // Signed arithmetic: padded coordinates can be negative.
        const long iy = static_cast<long>(oy * g.stride + ky) -
                        static_cast<long>(g.pad);
        if (iy < 0 || iy >= static_cast<long>(g.in_h)) {
          for (std::size_t ox = 0; ox < ow; ++ox) out[oy * ow + ox] = T{0};
          continue;
        }
        const T* src = plane + static_cast<std::size_t>(iy) * g.in_w;
        for (std::size_t ox = 0; ox < ow; ++ox) {
          const long ix = static_cast<long>(ox * g.stride + kx) -
                          static_cast<long>(g.pad);
          out[oy * ow + ox] = (ix < 0 || ix >= static_cast<long>(g.in_w))
                                  ? T{0}
                                  : src[static_cast<std::size_t>(ix)];
        }
      }
    }
  });
}

}  // namespace

void im2col(const float* image, const ConvGeometry& g, float* columns,
            const ExecContext& ctx) {
  im2col_impl(image, g, columns, ctx);
}

void col2im(const float* columns, const ConvGeometry& g, float* image,
            const ExecContext& ctx) {
  const std::size_t oh = g.out_h();
  const std::size_t ow = g.out_w();
  const std::size_t spatial = oh * ow;
  const std::size_t kk = g.kernel * g.kernel;
  parallel_for(ctx, g.in_channels, 1, [&](std::size_t c0, std::size_t c1) {
    for (std::size_t c = c0; c < c1; ++c) {
      float* plane = image + c * g.in_h * g.in_w;
      std::size_t row = c * kk;
      for (std::size_t ky = 0; ky < g.kernel; ++ky) {
        for (std::size_t kx = 0; kx < g.kernel; ++kx, ++row) {
          const float* in = columns + row * spatial;
          for (std::size_t oy = 0; oy < oh; ++oy) {
            const long iy = static_cast<long>(oy * g.stride + ky) -
                            static_cast<long>(g.pad);
            if (iy < 0 || iy >= static_cast<long>(g.in_h)) continue;
            float* dst = plane + static_cast<std::size_t>(iy) * g.in_w;
            for (std::size_t ox = 0; ox < ow; ++ox) {
              const long ix = static_cast<long>(ox * g.stride + kx) -
                              static_cast<long>(g.pad);
              if (ix < 0 || ix >= static_cast<long>(g.in_w)) continue;
              dst[static_cast<std::size_t>(ix)] += in[oy * ow + ox];
            }
          }
        }
      }
    }
  });
}

}  // namespace ccq
