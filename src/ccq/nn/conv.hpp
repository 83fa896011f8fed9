// 2-D convolution layer (NCHW, square kernel) lowered to GEMM via im2col.
//
// Samples run in groups: as many as fit a fixed 2^18-float lowered panel
// (at least one) are lowered side by side, so each group's forward, dX
// and dW are GEMMs over wide panels.  Backward lowers each group again
// rather than keeping the forward's panels alive.  Both passes are
// parallel over samples.  A forward chunk lowers and multiplies its own
// samples (one sample per chunk once threads split the batch).  A
// backward chunk fills its own columns of the group's panels and stores
// each of its samples' dW partials, which are added in sample order once
// the chunks finish.  Every output keeps the per-sample scalar order
// (tensor/gemm.hpp's contract):
//
//   forward  y[n][oc][s] = Σ_p W[oc][p]·cols[p][s], p ascending from +0,
//            then + bias[oc]
//   dX       dcols[p][s] = Σ_oc W[oc][p]·gy[oc][s], oc ascending from
//            +0, then col2im adds into each pixel in (c, ky, kx) order
//   dW       each sample's Σ_s gy[oc][s]·cols[p][s], s ascending from +0,
//            added to dW in sample order — never summed over a group in
//            one pass
//
// so training is bit-identical to a one-sample-at-a-time scalar loop, for
// any group size and thread count.  backward_params runs the same body
// without dX — no zeroed input gradient, no Wᵀ·gy GEMM, no col2im — for a
// conv whose input gradient nobody reads, such as a network's first
// layer; dW and dbias come out byte-identical.
#pragma once

#include <memory>

#include "ccq/nn/module.hpp"
#include "ccq/tensor/im2col.hpp"

namespace ccq::nn {

/// Convolution over (N, C, H, W) inputs.  Weights are stored as a rank-4
/// tensor (out_ch, in_ch, k, k) whose row-major layout doubles as the
/// (out_ch × in_ch·k·k) GEMM matrix.  Supports an optional weight
/// quantizer hook (the CCQ seam).
class Conv2d : public Module {
 public:
  Conv2d(std::size_t in_channels, std::size_t out_channels, std::size_t kernel,
         std::size_t stride, std::size_t pad, bool bias, Rng& rng,
         std::string name = "conv");

  Tensor forward(const Tensor& x, Workspace& ws) override;
  Tensor backward(const Tensor& grad_out, Workspace& ws) override;
  /// backward without dX: no zeroed input gradient, no Wᵀ·gy GEMM and
  /// no col2im; dW and dbias are formed exactly as backward forms them.
  void backward_params(const Tensor& grad_out, Workspace& ws) override;
  void collect_parameters(std::vector<Parameter*>& out) override;
  std::string type_name() const override { return "Conv2d"; }

  /// Attach / replace / clear (nullptr) the weight quantizer.
  void set_weight_quantizer(std::shared_ptr<QuantizerHook> hook) {
    weight_hook_ = std::move(hook);
  }
  QuantizerHook* weight_quantizer() const { return weight_hook_.get(); }

  Parameter& weight() { return weight_; }
  const Parameter& weight() const { return weight_; }
  bool has_bias() const { return has_bias_; }
  Parameter& bias() { return bias_; }

  std::size_t in_channels() const { return in_channels_; }
  std::size_t out_channels() const { return out_channels_; }
  std::size_t kernel() const { return kernel_; }
  std::size_t stride() const { return stride_; }
  std::size_t pad() const { return pad_; }

  /// Multiply-accumulate count for one sample at the given input size
  /// (used by the hardware power model).
  std::size_t macs_per_sample(std::size_t in_h, std::size_t in_w) const;

 private:
  ConvGeometry geometry(std::size_t h, std::size_t w) const;
  /// The one backward body: dW and dbias always, dX (returned) only
  /// with `input_grad`, else an empty tensor.
  Tensor backward_body(const Tensor& grad_out, Workspace& ws,
                       bool input_grad);

  std::size_t in_channels_, out_channels_, kernel_, stride_, pad_;
  bool has_bias_;
  Parameter weight_;
  Parameter bias_;
  std::shared_ptr<QuantizerHook> weight_hook_;

  // Forward cache.
  Tensor input_;
  Tensor qweight_;  ///< weights actually used (quantized or latent copy)
};

}  // namespace ccq::nn
