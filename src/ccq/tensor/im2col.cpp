#include "ccq/tensor/im2col.hpp"

#include <algorithm>

namespace ccq {

namespace {

/// Output positions [lo, hi) along one axis whose input tap
/// o·stride + tap − pad lands inside [0, size): the padding test hoisted
/// out of the pixel loops.
struct TapSpan {
  std::size_t lo = 0, hi = 0;
};

TapSpan tap_span(std::size_t out, std::size_t size, std::size_t tap,
                 std::size_t stride, std::size_t pad) {
  if (size + pad <= tap) return {};  // the tap never reaches the input
  // o·stride + tap ≥ pad  and  o·stride + tap − pad ≤ size − 1.
  const std::size_t lo = tap >= pad ? 0 : (pad - tap + stride - 1) / stride;
  const std::size_t hi = std::min(out, (size - 1 + pad - tap) / stride + 1);
  return {std::min(lo, hi), hi};
}

/// dst[i] = src[i·stride] for i < n: one output row of a lowered tap.
/// Strides 1 and 2 are spelled out so the compiler vectorizes them.
inline void gather_row(float* dst, const float* src, std::size_t n,
                       std::size_t stride) {
  if (stride == 1) {
    for (std::size_t i = 0; i < n; ++i) dst[i] = src[i];
  } else if (stride == 2) {
    for (std::size_t i = 0; i < n; ++i) dst[i] = src[2 * i];
  } else {
    for (std::size_t i = 0; i < n; ++i) dst[i] = src[i * stride];
  }
}

/// dst[i·stride] += src[i] for i < n: gather_row's adjoint.
inline void scatter_add_row(float* dst, const float* src, std::size_t n,
                            std::size_t stride) {
  if (stride == 1) {
    for (std::size_t i = 0; i < n; ++i) dst[i] += src[i];
  } else if (stride == 2) {
    for (std::size_t i = 0; i < n; ++i) dst[2 * i] += src[i];
  } else {
    for (std::size_t i = 0; i < n; ++i) dst[i * stride] += src[i];
  }
}

}  // namespace

void im2col(const float* images, const ConvGeometry& g, std::size_t batch,
            float* columns, std::size_t ld, const ExecContext& ctx) {
  const std::size_t oh = g.out_h();
  const std::size_t ow = g.out_w();
  const std::size_t spatial = oh * ow;
  const std::size_t kk = g.kernel * g.kernel;
  const std::size_t image_size = g.in_channels * g.in_h * g.in_w;
  // One task item per column-panel row (c, ky, kx); rows write disjoint
  // `columns` slices.  Grain keeps per-chunk work meaningful for the
  // tiny kernels (3×3 → 9 rows per channel).
  parallel_for(ctx, g.in_channels * kk, kk,
               [&](std::size_t row0, std::size_t row1) {
    for (std::size_t row = row0; row < row1; ++row) {
      const std::size_t c = row / kk;
      const std::size_t ky = (row / g.kernel) % g.kernel;
      const std::size_t kx = row % g.kernel;
      const TapSpan ys = tap_span(oh, g.in_h, ky, g.stride, g.pad);
      const TapSpan xs = tap_span(ow, g.in_w, kx, g.stride, g.pad);
      // A tap that meets the padding zero-fills its whole block once
      // instead of testing every pixel.
      const bool padded = ys.lo > 0 || ys.hi < oh || xs.lo > 0 || xs.hi < ow;
      // Output rows that read the input (none when no column does), and
      // the input column of the first in-bounds output column.
      const std::size_t y_end = xs.lo < xs.hi ? ys.hi : ys.lo;
      const std::size_t x0 = xs.lo * g.stride + kx - g.pad;
      for (std::size_t n = 0; n < batch; ++n) {
        const float* plane = images + n * image_size + c * g.in_h * g.in_w;
        float* out = columns + row * ld + n * spatial;
        if (padded) std::fill(out, out + spatial, 0.0f);
        for (std::size_t oy = ys.lo; oy < y_end; ++oy) {
          gather_row(out + oy * ow + xs.lo,
                     plane + (oy * g.stride + ky - g.pad) * g.in_w + x0,
                     xs.hi - xs.lo, g.stride);
        }
      }
    }
  });
}

void col2im(const float* columns, std::size_t ld, const ConvGeometry& g,
            std::size_t batch, float* images, const ExecContext& ctx) {
  const std::size_t oh = g.out_h();
  const std::size_t ow = g.out_w();
  const std::size_t spatial = oh * ow;
  const std::size_t kk = g.kernel * g.kernel;
  const std::size_t plane_size = g.in_h * g.in_w;
  // One task item per (image, channel) plane: a plane receives only its
  // own rows.  Taps run outermost, so each pixel adds them in (ky, kx)
  // order.
  parallel_for(ctx, batch * g.in_channels, 1,
               [&](std::size_t p0, std::size_t p1) {
    for (std::size_t ky = 0; ky < g.kernel; ++ky) {
      const TapSpan ys = tap_span(oh, g.in_h, ky, g.stride, g.pad);
      for (std::size_t kx = 0; kx < g.kernel; ++kx) {
        const TapSpan xs = tap_span(ow, g.in_w, kx, g.stride, g.pad);
        if (xs.lo == xs.hi) continue;  // the tap reads only padding
        const std::size_t x0 = xs.lo * g.stride + kx - g.pad;
        for (std::size_t p = p0; p < p1; ++p) {
          const std::size_t n = p / g.in_channels;
          const std::size_t row = (p % g.in_channels) * kk + ky * g.kernel + kx;
          const float* in = columns + row * ld + n * spatial;
          float* plane = images + p * plane_size;
          for (std::size_t oy = ys.lo; oy < ys.hi; ++oy) {
            scatter_add_row(plane + (oy * g.stride + ky - g.pad) * g.in_w + x0,
                            in + oy * ow + xs.lo, xs.hi - xs.lo, g.stride);
          }
        }
      }
    }
  });
}

}  // namespace ccq
