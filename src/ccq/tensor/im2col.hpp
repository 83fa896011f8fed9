// im2col / col2im lowering for convolution, and the channels-last
// `im2row` lowering of the integer datapath.
//
// Float convolution forward becomes: columns = im2col(x); y = W_mat ·
// columns.  Backward w.r.t. the input inverts the lowering with col2im
// (scatter-add).  The integer engine keeps its codes channels-last and
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

/// Lower one image (C,H,W flattened in `image`) to a (patch_size ×
/// out_spatial) column matrix written to `columns`.  Parallel over
/// column-matrix rows (each row is written by exactly one chunk).
void im2col(const float* image, const ConvGeometry& g, float* columns,
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

/// Scatter-add a column matrix back to image gradient layout.  `image`
/// must be pre-zeroed by the caller (we accumulate).  Parallel over
/// channels: rows of one channel scatter only into that channel's plane,
/// and within a channel the serial (ky, kx) order is kept, so the
/// accumulation is deterministic for any thread count.
void col2im(const float* columns, const ConvGeometry& g, float* image,
            const ExecContext& ctx = ExecContext::global());

}  // namespace ccq
