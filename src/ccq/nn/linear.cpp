#include "ccq/nn/linear.hpp"

#include "ccq/nn/init.hpp"
#include "ccq/tensor/gemm.hpp"

namespace ccq::nn {

Linear::Linear(std::size_t in_features, std::size_t out_features, bool bias,
               Rng& rng, std::string name)
    : in_features_(in_features), out_features_(out_features), has_bias_(bias) {
  CCQ_CHECK(in_features > 0 && out_features > 0, "invalid linear config");
  Tensor w({out_features, in_features});
  he_normal(w, in_features, rng);
  weight_ = Parameter(name + ".weight", std::move(w));
  if (has_bias_) bias_ = Parameter(name + ".bias", Tensor({out_features}));
}

Tensor Linear::forward(const Tensor& x, Workspace& ws) {
  CCQ_CHECK(x.rank() == 2 && x.dim(1) == in_features_,
            "Linear expects (N, in_features) input");
  if (training_) input_ = x;
  if (weight_hook_) {
    weight_hook_->quantize_into(weight_.value, qweight_);
  } else {
    qweight_ = weight_.value;
  }
  // y (N × out) = x (N × in) · Wᵀ (in × out)
  Tensor y = ws.tensor_uninit({x.dim(0), out_features_});
  matmul_nt_into(x, qweight_, y, exec());
  if (has_bias_) {
    const std::size_t n = y.dim(0);
    const float* bias = bias_.value.data().data();
    float* yp = y.data().data();
    for (std::size_t i = 0; i < n; ++i) {
      float* row = yp + i * out_features_;
      for (std::size_t j = 0; j < out_features_; ++j) row[j] += bias[j];
    }
  }
  return y;
}

Tensor Linear::backward(const Tensor& grad_out, Workspace& ws) {
  CCQ_CHECK(input_.rank() == 2, "backward before forward");
  CCQ_CHECK(grad_out.rank() == 2 && grad_out.dim(0) == input_.dim(0) &&
                grad_out.dim(1) == out_features_,
            "Linear grad shape mismatch");
  // dW (out × in) = gyᵀ (out × N) · x (N × in)
  Tensor grad_qw = ws.tensor_uninit(weight_.value.shape());
  matmul_tn_into(grad_out, input_, grad_qw, exec());
  Tensor grad_w = weight_hook_
                      ? weight_hook_->backward(weight_.value, std::move(grad_qw))
                      : std::move(grad_qw);
  weight_.grad += grad_w;
  ws.recycle(std::move(grad_w));
  if (has_bias_) {
    const std::size_t n = grad_out.dim(0);
    const float* gy = grad_out.data().data();
    float* gb = bias_.grad.data().data();
    for (std::size_t j = 0; j < out_features_; ++j) {
      float acc = 0.0f;
      for (std::size_t i = 0; i < n; ++i) acc += gy[i * out_features_ + j];
      gb[j] += acc;
    }
  }
  // dx (N × in) = gy (N × out) · W (out × in)
  Tensor grad_in = ws.tensor_uninit({grad_out.dim(0), in_features_});
  matmul_into(grad_out, qweight_, grad_in, exec());
  return grad_in;
}

void Linear::collect_parameters(std::vector<Parameter*>& out) {
  out.push_back(&weight_);
  if (has_bias_) out.push_back(&bias_);
  if (weight_hook_) weight_hook_->collect_parameters(out);
}

}  // namespace ccq::nn
