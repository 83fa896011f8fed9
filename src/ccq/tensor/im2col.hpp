// im2col / col2im lowering for convolution, and the channels-last
// `im2row` lowering of the integer datapath.
//
// Float convolution lowers a group of images side by side into one
// column panel: columns = im2col(x[n0 .. n0+G)); y = W_mat · columns is
// then one GEMM over G·out_spatial columns.  Backward w.r.t. the input
// inverts the lowering with col2im (scatter-add) from a panel of the
// same layout.  Both take the panel's leading dimension and work out
// which output pixels of a kernel tap fall in the padding once per tap,
// not per pixel.  The integer engine keeps its codes channels-last and
// lowers with `im2row` instead: one dot row per output pixel, so a conv
// is the same row × weight-panel product as a linear layer.
#pragma once

#include <cstddef>
#include <cstdint>

#include "ccq/common/exec.hpp"
#include "ccq/tensor/tensor.hpp"

namespace ccq {

/// Static geometry of a 2-D convolution (square kernel/stride/pad).
struct ConvGeometry {
  std::size_t in_channels = 0;
  std::size_t in_h = 0;
  std::size_t in_w = 0;
  std::size_t kernel = 1;
  std::size_t stride = 1;
  std::size_t pad = 0;

  std::size_t out_h() const {
    CCQ_CHECK(in_h + 2 * pad >= kernel, "conv kernel larger than padded input");
    return (in_h + 2 * pad - kernel) / stride + 1;
  }
  std::size_t out_w() const {
    CCQ_CHECK(in_w + 2 * pad >= kernel, "conv kernel larger than padded input");
    return (in_w + 2 * pad - kernel) / stride + 1;
  }
  /// Codes per patch, C·k·k: rows of im2col's column matrix, the depth
  /// of an im2row dot row.
  std::size_t patch_size() const { return in_channels * kernel * kernel; }
  /// Output pixels per image, out_h·out_w: columns of im2col's matrix,
  /// im2row dot rows per image.
  std::size_t out_spatial() const { return out_h() * out_w(); }
};

/// Lower `batch` images ((C,H,W) each, back to back in `images`) into a
/// column panel of patch_size rows and leading dimension `ld` ≥
/// batch·out_spatial: image n fills columns [n·S, (n+1)·S) of every row
/// (S = out_spatial), zeros at padding taps.  Parallel over panel rows
/// (each row is written by exactly one chunk).
void im2col(const float* images, const ConvGeometry& g, std::size_t batch,
            float* columns, std::size_t ld,
            const ExecContext& ctx = ExecContext::global());

/// Channels-last lowering for the integer datapath.  `image` holds
/// `batch` (H, W, C) code maps back to back; for each of the
/// batch·out_h·out_w output pixels (row-major over image, oy, ox) one
/// dot row of `stride` lanes is written to `rows`: the pixel's patch in
/// (ky, kx, c) order, zeros at padding taps and in the lanes
/// [patch_size, stride).  Each ky of a patch is one contiguous kernel·C
/// run of the input, so the lowering is a handful of copies per row;
/// `Dst` may widen `Src` (u8 codes into vec16's int16 lanes) but must
/// hold every code.  Parallel over output image rows (img, oy), each
/// lowered by exactly one chunk.  Instantiated for u8 / i16 codes into
/// u8 / i16 lanes.
template <typename Src, typename Dst>
void im2row(const Src* image, const ConvGeometry& g, std::size_t batch,
            Dst* rows, std::size_t stride,
            const ExecContext& ctx = ExecContext::global());

/// Scatter-add a column panel (im2col's layout, leading dimension `ld`)
/// back into `batch` images.  The images accumulate: the caller zeroes
/// them first.  Parallel over (image, channel) planes: a plane receives
/// only its own rows, and each pixel adds its taps in (ky, kx) order, so
/// the accumulation is deterministic for any thread count.
void col2im(const float* columns, std::size_t ld, const ConvGeometry& g,
            std::size_t batch, float* images,
            const ExecContext& ctx = ExecContext::global());

}  // namespace ccq
