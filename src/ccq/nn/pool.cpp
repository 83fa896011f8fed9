#include "ccq/nn/pool.hpp"

#include <algorithm>
#include <limits>

namespace ccq::nn {

MaxPool2d::MaxPool2d(std::size_t kernel, std::size_t stride)
    : kernel_(kernel), stride_(stride) {
  CCQ_CHECK(kernel > 0 && stride > 0, "invalid pool config");
}

Tensor MaxPool2d::forward(const Tensor& x, Workspace& ws) {
  CCQ_CHECK(x.rank() == 4, "MaxPool2d expects NCHW input");
  in_shape_ = x.shape();
  const std::size_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  CCQ_CHECK(h >= kernel_ && w >= kernel_, "pool window larger than input");
  const std::size_t oh = (h - kernel_) / stride_ + 1;
  const std::size_t ow = (w - kernel_) / stride_ + 1;
  Tensor y = ws.tensor_uninit({n, c, oh, ow});  // fully overwritten
  // Eval fast path: the argmax map only feeds backward.
  const bool record = training_;
  if (record) argmax_.assign(y.numel(), 0);
  const float* xp = x.data().data();
  float* yp = y.data().data();
  std::size_t out_idx = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t ch = 0; ch < c; ++ch) {
      const float* plane = xp + (i * c + ch) * h * w;
      const std::size_t plane_base = (i * c + ch) * h * w;
      for (std::size_t oy = 0; oy < oh; ++oy) {
        for (std::size_t ox = 0; ox < ow; ++ox, ++out_idx) {
          float best = -std::numeric_limits<float>::infinity();
          std::size_t best_idx = 0;
          for (std::size_t ky = 0; ky < kernel_; ++ky) {
            for (std::size_t kx = 0; kx < kernel_; ++kx) {
              const std::size_t iy = oy * stride_ + ky;
              const std::size_t ix = ox * stride_ + kx;
              const float v = plane[iy * w + ix];
              if (v > best) {
                best = v;
                best_idx = plane_base + iy * w + ix;
              }
            }
          }
          yp[out_idx] = best;
          if (record) argmax_[out_idx] = best_idx;
        }
      }
    }
  }
  return y;
}

Tensor MaxPool2d::backward(const Tensor& grad_out, Workspace& ws) {
  CCQ_CHECK(grad_out.numel() == argmax_.size(), "MaxPool2d grad mismatch");
  Tensor grad_in = ws.tensor(in_shape_);  // scatter-add needs zeros
  float* gx = grad_in.data().data();
  const float* gy = grad_out.data().data();
  for (std::size_t i = 0; i < argmax_.size(); ++i) gx[argmax_[i]] += gy[i];
  return grad_in;
}

AvgPool2d::AvgPool2d(std::size_t kernel, std::size_t stride)
    : kernel_(kernel), stride_(stride) {
  CCQ_CHECK(kernel > 0 && stride > 0, "invalid pool config");
}

Tensor AvgPool2d::forward(const Tensor& x, Workspace& ws) {
  CCQ_CHECK(x.rank() == 4, "AvgPool2d expects NCHW input");
  in_shape_ = x.shape();
  const std::size_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  CCQ_CHECK(h >= kernel_ && w >= kernel_, "pool window larger than input");
  const std::size_t oh = (h - kernel_) / stride_ + 1;
  const std::size_t ow = (w - kernel_) / stride_ + 1;
  const float inv = 1.0f / static_cast<float>(kernel_ * kernel_);
  Tensor y = ws.tensor_uninit({n, c, oh, ow});  // fully overwritten
  const float* xp = x.data().data();
  float* yp = y.data().data();
  std::size_t out_idx = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t ch = 0; ch < c; ++ch) {
      const float* plane = xp + (i * c + ch) * h * w;
      for (std::size_t oy = 0; oy < oh; ++oy) {
        for (std::size_t ox = 0; ox < ow; ++ox, ++out_idx) {
          float acc = 0.0f;
          for (std::size_t ky = 0; ky < kernel_; ++ky) {
            for (std::size_t kx = 0; kx < kernel_; ++kx) {
              acc += plane[(oy * stride_ + ky) * w + (ox * stride_ + kx)];
            }
          }
          yp[out_idx] = acc * inv;
        }
      }
    }
  }
  return y;
}

Tensor AvgPool2d::backward(const Tensor& grad_out, Workspace& ws) {
  const std::size_t n = in_shape_[0], c = in_shape_[1], h = in_shape_[2],
                    w = in_shape_[3];
  const std::size_t oh = (h - kernel_) / stride_ + 1;
  const std::size_t ow = (w - kernel_) / stride_ + 1;
  CCQ_CHECK(grad_out.rank() == 4 && grad_out.dim(2) == oh &&
                grad_out.dim(3) == ow,
            "AvgPool2d grad mismatch");
  const float inv = 1.0f / static_cast<float>(kernel_ * kernel_);
  Tensor grad_in = ws.tensor(in_shape_);  // overlapping += needs zeros
  float* gx = grad_in.data().data();
  const float* gy = grad_out.data().data();
  std::size_t out_idx = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t ch = 0; ch < c; ++ch) {
      float* plane = gx + (i * c + ch) * h * w;
      for (std::size_t oy = 0; oy < oh; ++oy) {
        for (std::size_t ox = 0; ox < ow; ++ox, ++out_idx) {
          const float g = gy[out_idx] * inv;
          for (std::size_t ky = 0; ky < kernel_; ++ky) {
            for (std::size_t kx = 0; kx < kernel_; ++kx) {
              plane[(oy * stride_ + ky) * w + (ox * stride_ + kx)] += g;
            }
          }
        }
      }
    }
  }
  return grad_in;
}

Tensor GlobalAvgPool::forward(const Tensor& x, Workspace& ws) {
  CCQ_CHECK(x.rank() == 4, "GlobalAvgPool expects NCHW input");
  in_shape_ = x.shape();
  const std::size_t n = x.dim(0), c = x.dim(1), plane = x.dim(2) * x.dim(3);
  const float inv = 1.0f / static_cast<float>(plane);
  Tensor y = ws.tensor_uninit({n, c});  // fully overwritten
  const float* xp = x.data().data();
  float* yp = y.data().data();
  for (std::size_t i = 0; i < n * c; ++i) {
    const float* src = xp + i * plane;
    float acc = 0.0f;
    for (std::size_t s = 0; s < plane; ++s) acc += src[s];
    yp[i] = acc * inv;
  }
  return y;
}

Tensor GlobalAvgPool::backward(const Tensor& grad_out, Workspace& ws) {
  const std::size_t n = in_shape_[0], c = in_shape_[1],
                    plane = in_shape_[2] * in_shape_[3];
  CCQ_CHECK(grad_out.rank() == 2 && grad_out.dim(0) == n &&
                grad_out.dim(1) == c,
            "GlobalAvgPool grad mismatch");
  const float inv = 1.0f / static_cast<float>(plane);
  Tensor grad_in = ws.tensor_uninit(in_shape_);  // fully overwritten
  const float* gy = grad_out.data().data();
  float* gx = grad_in.data().data();
  for (std::size_t i = 0; i < n * c; ++i) {
    std::fill(gx + i * plane, gx + (i + 1) * plane, gy[i] * inv);
  }
  return grad_in;
}

Tensor Flatten::forward(const Tensor& x, Workspace& ws) {
  CCQ_CHECK(x.rank() >= 2, "Flatten expects rank >= 2");
  in_shape_ = x.shape();
  Tensor y = ws.tensor_uninit({x.dim(0), x.numel() / x.dim(0)});
  std::copy(x.data().begin(), x.data().end(), y.data().begin());
  return y;
}

Tensor Flatten::backward(const Tensor& grad_out, Workspace& ws) {
  Tensor g = ws.tensor_uninit(in_shape_);
  std::copy(grad_out.data().begin(), grad_out.data().end(), g.data().begin());
  return g;
}

}  // namespace ccq::nn
