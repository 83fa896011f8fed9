// Batch normalisation.
#pragma once

#include "ccq/nn/module.hpp"

namespace ccq::nn {

/// BatchNorm over (N, C, H, W): per-channel statistics across N·H·W.
/// Training mode uses batch statistics and maintains running estimates;
/// eval mode uses the running estimates.  Scale/shift (γ, β) are
/// learnable and exempt from weight decay.
///
/// Numerics: each channel's Σx and Σx² (forward) and Σgy and Σgy·x̂
/// (backward) are double chains from +0 in (n, s) order.  Four channels'
/// chains run side by side, one per vector lane, which leaves each chain
/// as it was; splitting one channel's chain would reassociate it.  The
/// elementwise passes run four lanes at a time in the scalar
/// expression order:
///
///   train    x̂ = (x − float(mean))·inv_std,  y = γ·x̂ + β
///   backward gx = (γ·inv_std)·(gy − mean(gy) − x̂·mean(gy·x̂))
///   eval     y = γ·(x − mean)·inv_std + β
class BatchNorm2d : public Module {
 public:
  explicit BatchNorm2d(std::size_t channels, float momentum = 0.1f,
                       float eps = 1e-5f, std::string name = "bn");

  Tensor forward(const Tensor& x, Workspace& ws) override;
  Tensor backward(const Tensor& grad_out, Workspace& ws) override;
  void collect_parameters(std::vector<Parameter*>& out) override;
  void collect_buffers(std::vector<NamedBuffer>& out) override;
  std::string type_name() const override { return "BatchNorm2d"; }

  Parameter& gamma() { return gamma_; }
  Parameter& beta() { return beta_; }
  const Tensor& running_mean() const { return running_mean_; }
  const Tensor& running_var() const { return running_var_; }

 private:
  std::size_t channels_;
  float momentum_, eps_;
  std::string name_;
  Parameter gamma_, beta_;
  Tensor running_mean_, running_var_;

  // Forward cache (training mode).  Backward needs only the input's
  // shape; x̂ carries everything else.
  Shape input_shape_;
  Tensor xhat_;
  std::vector<float> batch_mean_, batch_inv_std_;
};

}  // namespace ccq::nn
