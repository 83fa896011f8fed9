#include "ccq/nn/conv.hpp"

#include <algorithm>

#include "ccq/common/telemetry.hpp"
#include "ccq/nn/init.hpp"
#include "ccq/tensor/gemm.hpp"

namespace ccq::nn {

Conv2d::Conv2d(std::size_t in_channels, std::size_t out_channels,
               std::size_t kernel, std::size_t stride, std::size_t pad,
               bool bias, Rng& rng, std::string name)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      has_bias_(bias) {
  CCQ_CHECK(in_channels > 0 && out_channels > 0 && kernel > 0 && stride > 0,
            "invalid conv configuration");
  Tensor w({out_channels, in_channels, kernel, kernel});
  he_normal(w, in_channels * kernel * kernel, rng);
  weight_ = Parameter(name + ".weight", std::move(w));
  if (has_bias_) {
    bias_ = Parameter(name + ".bias", Tensor({out_channels}));
  }
}

ConvGeometry Conv2d::geometry(std::size_t h, std::size_t w) const {
  return ConvGeometry{.in_channels = in_channels_,
                      .in_h = h,
                      .in_w = w,
                      .kernel = kernel_,
                      .stride = stride_,
                      .pad = pad_};
}

std::size_t Conv2d::macs_per_sample(std::size_t in_h, std::size_t in_w) const {
  const auto g = geometry(in_h, in_w);
  return out_channels_ * g.patch_size() * g.out_spatial();
}

namespace {

// Samples are lowered side by side into one column panel of at most
// kPanelFloats floats (1 MiB), so small layers run one wide GEMM over a
// group of samples instead of one narrow GEMM per sample.  The group
// size is a pure function of layer geometry and batch size.
constexpr std::size_t kPanelFloats = std::size_t{1} << 18;

// dW elements per task of the in-order partial sum.
constexpr std::size_t kAddGrain = 4096;

std::size_t group_size(std::size_t panel_per_sample, std::size_t batch) {
  return std::max<std::size_t>(
      1, std::min(batch, kPanelFloats / panel_per_sample));
}

}  // namespace

Tensor Conv2d::forward(const Tensor& x, Workspace& ws) {
  telemetry::ScopedTimer timer(telemetry::Timer::kConvForward);
  CCQ_CHECK(x.rank() == 4, "Conv2d expects NCHW input");
  CCQ_CHECK(x.dim(1) == in_channels_, "Conv2d channel mismatch");
  // Eval fast path: backward never runs, so skip the input cache.
  if (training_) input_ = x;  // copy-assign reuses capacity once warm
  if (weight_hook_) {
    weight_hook_->quantize_into(weight_.value, qweight_);
  } else {
    qweight_ = weight_.value;
  }

  const std::size_t n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const auto g = geometry(h, w);
  const std::size_t patch = g.patch_size(), spatial = g.out_spatial();
  const std::size_t image = in_channels_ * h * w;
  const std::size_t group = group_size(patch * spatial, n);

  Tensor y = ws.tensor_uninit({n, out_channels_, g.out_h(), g.out_w()});
  const float* wp = qweight_.data().data();
  const ExecContext& ctx = exec();
  // Parallel over samples: a chunk lowers its samples in groups, each
  // group one wide GEMM.  The outputs do not depend on how samples are
  // grouped or chunked.
  parallel_for(ctx, n, 1, [&](std::size_t i0, std::size_t i1) {
    const std::size_t most = std::min(group, i1 - i0);
    Workspace::FloatLease cols = ws.floats(patch * most * spatial);
    Workspace::FloatLease panel = ws.floats(out_channels_ * most * spatial);
    for (std::size_t n0 = i0; n0 < i1; n0 += group) {
      const std::size_t count = std::min(group, i1 - n0);
      const std::size_t width = count * spatial;
      // panel (out × count·S) = W (out × patch) · cols (patch × count·S)
      im2col(x.data().data() + n0 * image, g, count, cols.data(), width,
             ctx);
      gemm(out_channels_, width, patch, wp, patch, cols.data(), width,
           panel.data(), width, ctx);
      // Unfold the panel into NCHW, adding the bias after the sum.
      for (std::size_t r = 0; r < count * out_channels_; ++r) {
        const std::size_t i = r / out_channels_, oc = r % out_channels_;
        const float* src = panel.data() + oc * width + i * spatial;
        float* dst = y.data().data() + (n0 * out_channels_ + r) * spatial;
        if (has_bias_) {
          const float b = bias_.value.at(oc);
          for (std::size_t s = 0; s < spatial; ++s) dst[s] = src[s] + b;
        } else {
          std::copy_n(src, spatial, dst);
        }
      }
    }
  });
  return y;
}

Tensor Conv2d::backward(const Tensor& grad_out, Workspace& ws) {
  telemetry::ScopedTimer timer(telemetry::Timer::kConvBackward);
  CCQ_CHECK(input_.rank() == 4, "backward before forward");
  const std::size_t n = input_.dim(0);
  const std::size_t h = input_.dim(2), w = input_.dim(3);
  const auto g = geometry(h, w);
  const std::size_t patch = g.patch_size(), spatial = g.out_spatial();
  const std::size_t out = out_channels_;
  CCQ_CHECK(grad_out.rank() == 4 && grad_out.dim(0) == n &&
                grad_out.dim(1) == out &&
                grad_out.dim(2) * grad_out.dim(3) == spatial,
            "Conv2d grad shape mismatch");
  const std::size_t image = in_channels_ * h * w;
  const std::size_t group = group_size(patch * spatial, n);

  // col2im scatters with +=, so the input gradient starts zeroed.
  Tensor grad_in = ws.tensor(input_.shape());
  // dWᵀ (patch × out) accumulates one partial product per sample, each
  // formed on its own and added in sample order — never summed over a
  // group in one pass.
  const std::size_t weights = patch * out;
  Workspace::FloatLease dwt = ws.floats(weights);
  std::fill(dwt.data(), dwt.data() + weights, 0.0f);
  Workspace::FloatLease parts = ws.floats(group * weights);
  Workspace::FloatLease cols = ws.floats(patch * group * spatial);
  Workspace::FloatLease dcols = ws.floats(patch * group * spatial);
  Workspace::FloatLease gy_rows = ws.floats(out * group * spatial);
  Workspace::FloatLease gy_cols = ws.floats(group * spatial * out);
  const float* wp = qweight_.data().data();
  const ExecContext& ctx = exec();

  for (std::size_t n0 = 0; n0 < n; n0 += group) {
    const std::size_t count = std::min(group, n - n0);
    const std::size_t width = count * spatial;
    // Parallel over the group's samples: a chunk fills its columns of the
    // group's panels and its samples' dX and dW partials.  Every output
    // is written by one chunk in its kernel's order, so results are
    // bit-identical for any thread count.
    parallel_for(ctx, count, 1, [&](std::size_t i0, std::size_t i1) {
      const std::size_t col0 = i0 * spatial;
      im2col(input_.data().data() + (n0 + i0) * image, g, i1 - i0,
             cols.data() + col0, width, ctx);
      // gy as rows (out × count·S) and as columns (count·S × out): the
      // B operands of dX and dW.
      for (std::size_t i = i0; i < i1; ++i) {
        for (std::size_t oc = 0; oc < out; ++oc) {
          const float* src =
              grad_out.data().data() + ((n0 + i) * out + oc) * spatial;
          std::copy_n(src, spatial, gy_rows.data() + oc * width + i * spatial);
          float* col = gy_cols.data() + i * spatial * out + oc;
          for (std::size_t s = 0; s < spatial; ++s) col[s * out] = src[s];
        }
      }
      // dcols (patch × S per sample) = Wᵀ · gy, scattered into the images.
      gemm_tn(patch, (i1 - i0) * spatial, out, wp, patch,
              gy_rows.data() + col0, width, dcols.data() + col0, width, ctx);
      col2im(dcols.data() + col0, width, g, i1 - i0,
             grad_in.data().data() + (n0 + i0) * image, ctx);
      // Sample i's dWᵀ partial = cols_i (patch × S) · gyᵀ_i (S × out).
      for (std::size_t i = i0; i < i1; ++i) {
        gemm(patch, out, spatial, cols.data() + i * spatial, width,
             gy_cols.data() + i * spatial * out, out,
             parts.data() + i * weights, out, ctx);
      }
    });
    parallel_for(ctx, weights, kAddGrain, [&](std::size_t e0, std::size_t e1) {
      for (std::size_t i = 0; i < count; ++i) {
        const float* part = parts.data() + i * weights;
        for (std::size_t e = e0; e < e1; ++e) dwt.data()[e] += part[e];
      }
    });
  }

  // dL/d(quantized w) = (dWᵀ)ᵀ
  Tensor grad_qw = ws.tensor_uninit(weight_.value.shape());
  float* gwp = grad_qw.data().data();
  for (std::size_t oc = 0; oc < out; ++oc) {
    for (std::size_t p = 0; p < patch; ++p) {
      gwp[oc * patch + p] = dwt.data()[p * out + oc];
    }
  }
  if (has_bias_) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t oc = 0; oc < out; ++oc) {
        const float* gyrow = grad_out.data().data() + (i * out + oc) * spatial;
        float acc = 0.0f;
        for (std::size_t s = 0; s < spatial; ++s) acc += gyrow[s];
        bias_.grad.at(oc) += acc;
      }
    }
  }

  // Route the weight gradient through the quantizer's STE (identity when
  // no hook is attached).
  Tensor grad_w = weight_hook_
                      ? weight_hook_->backward(weight_.value, std::move(grad_qw))
                      : std::move(grad_qw);
  weight_.grad += grad_w;
  ws.recycle(std::move(grad_w));
  return grad_in;
}

void Conv2d::collect_parameters(std::vector<Parameter*>& out) {
  out.push_back(&weight_);
  if (has_bias_) out.push_back(&bias_);
  if (weight_hook_) weight_hook_->collect_parameters(out);
}

}  // namespace ccq::nn
