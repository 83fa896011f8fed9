// Channels-last `im2row` lowering of the integer datapath (declared in
// im2col.hpp).  Its own translation unit so it can be compiled at -O3
// like the igemm microkernels (see src/CMakeLists.txt): the short
// per-tap runs (3·C codes for a 3×3 kernel) and the u8 → int16 widening
// for vec16 only vectorize there, which halves the lowering's cost.
#include <algorithm>
#include <cstdint>

#include "ccq/tensor/im2col.hpp"

namespace ccq {

namespace {

// `__restrict`: u8 codes may alias anything, and without it the
// widening copy vectorizes only behind a runtime overlap check.
template <typename Dst>
inline void copy_lanes(const std::uint8_t* __restrict src, std::size_t n,
                       Dst* __restrict dst) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = static_cast<Dst>(src[i]);
}

template <typename Dst>
inline void zero_lanes(std::size_t n, Dst* dst) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = Dst{0};
}

/// Lower output image rows [t0, t1) (t = img·out_h + oy).  Everything
/// arrives by value, so the u8 stores cannot alias the loop bounds.
template <typename Dst>
void lower_rows(const std::uint8_t* image, const ConvGeometry g, Dst* rows,
                std::size_t stride, std::size_t t0, std::size_t t1) {
  const std::size_t oh = g.out_h(), ow = g.out_w();
  const std::size_t c = g.in_channels, k = g.kernel;
  const std::size_t run = k * c;  // one ky of a patch
  const std::size_t patch = k * run;
  const auto pad = static_cast<long>(g.pad);
  const auto h = static_cast<long>(g.in_h), w = static_cast<long>(g.in_w);
  for (std::size_t t = t0; t < t1; ++t) {
    const std::size_t img = t / oh, oy = t % oh;
    const std::uint8_t* plane = image + img * g.in_h * g.in_w * c;
    Dst* out = rows + t * ow * stride;
    for (std::size_t ox = 0; ox < ow; ++ox, out += stride) {
      // Signed arithmetic: padded coordinates can be negative.  Taps
      // kx in [kx0, kx1) land inside the image row.
      const long ix0 = static_cast<long>(ox * g.stride) - pad;
      const auto kx0 = static_cast<std::size_t>(std::max(0L, -ix0));
      const auto kx1 = static_cast<std::size_t>(
          std::clamp(w - ix0, 0L, static_cast<long>(k)));
      for (std::size_t ky = 0; ky < k; ++ky) {
        Dst* dst = out + ky * run;
        const long iy = static_cast<long>(oy * g.stride + ky) - pad;
        if (iy < 0 || iy >= h || kx0 >= kx1) {
          zero_lanes(run, dst);
          continue;
        }
        const std::uint8_t* src =
            plane + (static_cast<std::size_t>(iy) * g.in_w +
                     static_cast<std::size_t>(ix0 + static_cast<long>(kx0))) *
                        c;
        zero_lanes(kx0 * c, dst);
        copy_lanes(src, (kx1 - kx0) * c, dst + kx0 * c);
        zero_lanes((k - kx1) * c, dst + kx1 * c);
      }
      zero_lanes(stride - patch, out + patch);
    }
  }
}

}  // namespace

template <typename Dst>
void im2row(const std::uint8_t* image, const ConvGeometry& g,
            std::size_t batch, Dst* rows, std::size_t stride,
            const ExecContext& ctx) {
  CCQ_CHECK(stride >= g.patch_size(),
            "im2row: row stride shorter than the patch");
  // One task item per output image row (img, oy): its out_w dot rows are
  // written by exactly one chunk.
  parallel_for(ctx, batch * g.out_h(), 4, [&](std::size_t t0, std::size_t t1) {
    lower_rows(image, g, rows, stride, t0, t1);
  });
}

template void im2row(const std::uint8_t*, const ConvGeometry&, std::size_t,
                     std::uint8_t*, std::size_t, const ExecContext&);
template void im2row(const std::uint8_t*, const ConvGeometry&, std::size_t,
                     std::int16_t*, std::size_t, const ExecContext&);

}  // namespace ccq
