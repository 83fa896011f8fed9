#include "ccq/quant/act_quant.hpp"

#include <algorithm>

#include "ccq/tensor/vec4.hpp"

namespace ccq::quant {

namespace {

using vec::v4;
using vec::vi4;

/// Straight-through estimator of the clip to [0, clip]:
/// g[i] = (x[i] ≥ clip or x[i] ≤ 0) ? 0 : gy[i], as a select (a 0/1
/// multiply would turn 0·Inf into NaN).  With `saturated` set, the
/// gradient of the clip value, Σ gy[i] over x[i] ≥ clip, is added to it
/// in double in index order; a block with no saturated element adds
/// nothing, so skipping it keeps the sum exact.
void clip_backward(const float* x, const float* gy, float* g, std::size_t n,
                   float clip, double* saturated) {
  const v4 zero{}, hi = vec::splat(clip);
  vec::for_blocks(n, [&](std::size_t i, std::size_t k) {
    const v4 xv = vec::load4(x + i, k);
    const vi4 high = xv >= hi;
    if (saturated != nullptr && vec::any(high)) {
      for (std::size_t l = i; l < i + k; ++l) {
        if (x[l] >= clip) *saturated += gy[l];
      }
    }
    vec::store4(g + i, (high | (xv <= zero)) ? zero : vec::load4(gy + i, k), k);
  });
}

}  // namespace

ClipActQuant::ClipActQuant(float clip) : clip_(clip) {
  CCQ_CHECK(clip > 0.0f, "activation clip must be positive");
}

Tensor ClipActQuant::forward(const Tensor& x, Workspace& ws) {
  if (training_) input_ = x;  // eval fast path: STE mask never needed
  Tensor y = ws.tensor_uninit(x.shape());  // fully overwritten
  quantize_unsigned(x.data().data(), y.data().data(), x.numel(), bits_, clip_);
  return y;
}

Tensor ClipActQuant::backward(const Tensor& grad_out, Workspace& ws) {
  CCQ_CHECK(same_shape(grad_out, input_), "ClipActQuant grad mismatch");
  Tensor g = ws.tensor_uninit(grad_out.shape());
  clip_backward(input_.data().data(), grad_out.data().data(), g.data().data(),
                g.numel(), clip_, nullptr);
  return g;
}

PactActivation::PactActivation(float alpha_init, std::string name)
    : alpha_(name + ".alpha", Tensor({1}, alpha_init)) {
  CCQ_CHECK(alpha_init > 0.0f, "alpha must start positive");
  // PACT regularises α with ordinary L2 so it shrinks toward a tight clip.
  alpha_.weight_decay_scale = 1.0f;
}

Tensor PactActivation::forward(const Tensor& x, Workspace& ws) {
  if (training_) input_ = x;  // eval fast path
  const float a = std::max(alpha_.value.at(0), 1e-3f);
  Tensor y = ws.tensor_uninit(x.shape());  // fully overwritten
  quantize_unsigned(x.data().data(), y.data().data(), x.numel(), bits_, a);
  return y;
}

Tensor PactActivation::backward(const Tensor& grad_out, Workspace& ws) {
  CCQ_CHECK(same_shape(grad_out, input_), "PactActivation grad mismatch");
  const float a = std::max(alpha_.value.at(0), 1e-3f);
  Tensor g = ws.tensor_uninit(grad_out.shape());
  // Saturated high elements output exactly α, so dL/dα sums their gy;
  // inside (0, α) the gradient passes straight through.
  double alpha_grad = 0.0;
  clip_backward(input_.data().data(), grad_out.data().data(), g.data().data(),
                g.numel(), a, &alpha_grad);
  alpha_.grad.at(0) += static_cast<float>(alpha_grad);
  return g;
}

void PactActivation::collect_parameters(std::vector<nn::Parameter*>& out) {
  out.push_back(&alpha_);
}

}  // namespace ccq::quant
