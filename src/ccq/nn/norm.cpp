#include "ccq/nn/norm.hpp"

#include <algorithm>
#include <cmath>

#include "ccq/tensor/vec4.hpp"

namespace ccq::nn {

BatchNorm2d::BatchNorm2d(std::size_t channels, float momentum, float eps,
                         std::string name)
    : channels_(channels),
      momentum_(momentum),
      eps_(eps),
      name_(name),
      gamma_(name + ".gamma", Tensor({channels}, 1.0f)),
      beta_(name + ".beta", Tensor({channels})),
      running_mean_({channels}),
      running_var_({channels}, 1.0f) {
  // BN affine parameters are conventionally exempt from weight decay.
  gamma_.weight_decay_scale = 0.0f;
  beta_.weight_decay_scale = 0.0f;
}

namespace {

using vec::v2d;
using vec::v4;

/// Channels whose sums run side by side.
constexpr std::size_t kLanes = 4;

/// Σa and Σa·b (both widened to double) of channels [c0, c0 + kLanes)
/// of two (N, C, plane) tensors, each a chain from +0 in (n, s) order.
/// Channel c0 + l's chain is lane l % 2 of vector l / 2; lanes past the
/// last channel repeat it and are dropped.
void channel_sums(const float* a, const float* b, std::size_t n,
                  std::size_t channels, std::size_t plane, std::size_t c0,
                  double (&sum_a)[kLanes], double (&sum_ab)[kLanes]) {
  std::size_t ch[kLanes];
  for (std::size_t l = 0; l < kLanes; ++l) {
    ch[l] = std::min(c0 + l, channels - 1);
  }
  v2d sa[2] = {}, sab[2] = {};
  for (std::size_t i = 0; i < n; ++i) {
    const float* pa[kLanes];
    const float* pb[kLanes];
    for (std::size_t l = 0; l < kLanes; ++l) {
      pa[l] = a + (i * channels + ch[l]) * plane;
      pb[l] = b + (i * channels + ch[l]) * plane;
    }
    for (std::size_t s = 0; s < plane; ++s) {
      for (std::size_t h = 0; h < 2; ++h) {
        const v2d va = {pa[2 * h][s], pa[2 * h + 1][s]};
        const v2d vb = {pb[2 * h][s], pb[2 * h + 1][s]};
        sa[h] += va;
        sab[h] += va * vb;
      }
    }
  }
  for (std::size_t l = 0; l < kLanes; ++l) {
    sum_a[l] = sa[l / 2][l % 2];
    sum_ab[l] = sab[l / 2][l % 2];
  }
}

}  // namespace

Tensor BatchNorm2d::forward(const Tensor& x, Workspace& ws) {
  CCQ_CHECK(x.rank() == 4 && x.dim(1) == channels_,
            "BatchNorm2d expects (N, C, H, W) with C=" +
                std::to_string(channels_));
  const std::size_t n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const std::size_t plane = h * w;
  const std::size_t count = n * plane;
  Tensor y = ws.tensor_uninit(x.shape());  // fully overwritten below
  const float* xp = x.data().data();
  float* yp = y.data().data();

  if (training_) {
    input_shape_ = x.shape();
    batch_mean_.assign(channels_, 0.0f);
    batch_inv_std_.assign(channels_, 0.0f);
    xhat_.resize(x.shape());  // capacity-reusing; fully overwritten
    float* xh = xhat_.data().data();
    for (std::size_t c0 = 0; c0 < channels_; c0 += kLanes) {
      double sums[kLanes], sqsums[kLanes];
      channel_sums(xp, xp, n, channels_, plane, c0, sums, sqsums);
      for (std::size_t c = c0; c < std::min(c0 + kLanes, channels_); ++c) {
        const double sum = sums[c - c0], sqsum = sqsums[c - c0];
        const double mean = sum / static_cast<double>(count);
        const double var =
            std::max(0.0, sqsum / static_cast<double>(count) - mean * mean);
        const float inv_std = static_cast<float>(1.0 / std::sqrt(var + eps_));
        batch_mean_[c] = static_cast<float>(mean);
        batch_inv_std_[c] = inv_std;
        running_mean_.at(c) = (1.0f - momentum_) * running_mean_.at(c) +
                              momentum_ * static_cast<float>(mean);
        running_var_.at(c) = (1.0f - momentum_) * running_var_.at(c) +
                             momentum_ * static_cast<float>(var);
        const float g = gamma_.value.at(c), b = beta_.value.at(c);
        const float m = static_cast<float>(mean);
        for (std::size_t i = 0; i < n; ++i) {
          const std::size_t base = (i * channels_ + c) * plane;
          vec::for_blocks(plane, [&](std::size_t s, std::size_t k) {
            const v4 xhv = (vec::load4(xp + base + s, k) - m) * inv_std;
            vec::store4(xh + base + s, xhv, k);
            vec::store4(yp + base + s, g * xhv + b, k);
          });
        }
      }
    }
  } else {
    for (std::size_t c = 0; c < channels_; ++c) {
      const float inv_std =
          1.0f / std::sqrt(running_var_.at(c) + eps_);
      const float mean = running_mean_.at(c);
      const float g = gamma_.value.at(c), b = beta_.value.at(c);
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t base = (i * channels_ + c) * plane;
        vec::for_blocks(plane, [&](std::size_t s, std::size_t k) {
          const v4 xv = vec::load4(xp + base + s, k);
          vec::store4(yp + base + s, g * (xv - mean) * inv_std + b, k);
        });
      }
    }
  }
  return y;
}

Tensor BatchNorm2d::backward(const Tensor& grad_out, Workspace& ws) {
  CCQ_CHECK(training_, "BatchNorm2d backward only defined in training mode");
  CCQ_CHECK(input_shape_.size() == 4 && grad_out.shape() == input_shape_,
            "BatchNorm2d grad shape mismatch");
  const std::size_t n = input_shape_[0];
  const std::size_t plane = input_shape_[2] * input_shape_[3];
  const float count = static_cast<float>(n * plane);
  Tensor grad_in = ws.tensor_uninit(input_shape_);  // fully overwritten
  const float* gy = grad_out.data().data();
  const float* xh = xhat_.data().data();
  float* gx = grad_in.data().data();

  for (std::size_t c0 = 0; c0 < channels_; c0 += kLanes) {
    // dβ = Σ gy and dγ = Σ gy·x̂.
    double sums_gy[kLanes], sums_gy_xhat[kLanes];
    channel_sums(gy, xh, n, channels_, plane, c0, sums_gy, sums_gy_xhat);
    for (std::size_t c = c0; c < std::min(c0 + kLanes, channels_); ++c) {
      const double sum_gy = sums_gy[c - c0];
      const double sum_gy_xhat = sums_gy_xhat[c - c0];
      gamma_.grad.at(c) += static_cast<float>(sum_gy_xhat);
      beta_.grad.at(c) += static_cast<float>(sum_gy);

      // dx = (γ/σ) * (gy − mean(gy) − x̂·mean(gy·x̂))
      const float g_over_std = gamma_.value.at(c) * batch_inv_std_[c];
      const float mean_gy = static_cast<float>(sum_gy) / count;
      const float mean_gy_xhat = static_cast<float>(sum_gy_xhat) / count;
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t base = (i * channels_ + c) * plane;
        vec::for_blocks(plane, [&](std::size_t s, std::size_t k) {
          const v4 gyv = vec::load4(gy + base + s, k);
          const v4 xhv = vec::load4(xh + base + s, k);
          vec::store4(gx + base + s,
                      g_over_std * (gyv - mean_gy - xhv * mean_gy_xhat), k);
        });
      }
    }
  }
  return grad_in;
}

void BatchNorm2d::collect_parameters(std::vector<Parameter*>& out) {
  out.push_back(&gamma_);
  out.push_back(&beta_);
}

void BatchNorm2d::collect_buffers(std::vector<NamedBuffer>& out) {
  out.emplace_back(name_ + ".running_mean", &running_mean_);
  out.emplace_back(name_ + ".running_var", &running_var_);
}

}  // namespace ccq::nn
