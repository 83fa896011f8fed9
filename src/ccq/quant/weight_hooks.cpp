#include "ccq/quant/weight_hooks.hpp"

#include <algorithm>
#include <cmath>

namespace ccq::quant {

namespace {

/// Zero the gradient wherever the forward clip saturated (|w| > clip).
Tensor mask_saturated(const Tensor& w, Tensor grad, float clip) {
  auto wp = w.data();
  auto gp = grad.data();
  for (std::size_t i = 0; i < wp.size(); ++i) {
    if (std::fabs(wp[i]) > clip) gp[i] = 0.0f;
  }
  return grad;
}

}  // namespace

// ---- DoReFa ----------------------------------------------------------------

void DoReFaWeightHook::quantize_into(const Tensor& w, Tensor& dst) {
  if (bits_ >= 32) {
    dst = w;
    return;
  }
  auto wp = w.data();
  float max_tanh = 0.0f;
  std::vector<float>& t = tanh_scratch_;  // member: no per-call allocation
  t.resize(wp.size());
  for (std::size_t i = 0; i < wp.size(); ++i) {
    t[i] = std::tanh(wp[i]);
    max_tanh = std::max(max_tanh, std::fabs(t[i]));
  }
  dst.resize(w.shape());
  last_max_tanh_ = max_tanh;
  if (max_tanh == 0.0f) {  // all-zero weights
    dst.fill(0.0f);
    return;
  }
  auto qp = dst.data();
  const float out_scale = scale_preserving_ ? max_tanh : 1.0f;
  for (std::size_t i = 0; i < wp.size(); ++i) {
    t[i] = t[i] / (2.0f * max_tanh) + 0.5f;
  }
  // The array kernel at clip 1 is quantize_unit bit for bit: x/1 and 1·r
  // are exact.
  quantize_unsigned(t.data(), t.data(), t.size(), bits_, 1.0f);
  for (std::size_t i = 0; i < wp.size(); ++i) {
    qp[i] = out_scale * (2.0f * t[i] - 1.0f);
  }
}

// ---- WRPN ------------------------------------------------------------------

void WrpnWeightHook::quantize_into(const Tensor& w, Tensor& dst) {
  if (bits_ >= 32) {
    dst = w;
    return;
  }
  quantize_symmetric_into(w, bits_, 1.0f, dst);
}

Tensor WrpnWeightHook::backward(const Tensor& w, Tensor grad_q) {
  if (bits_ >= 32) return grad_q;
  return mask_saturated(w, std::move(grad_q), 1.0f);
}

// ---- SAWB ------------------------------------------------------------------

float SawbWeightHook::clip_for(const Tensor& w, int bits) {
  // Coefficients in the spirit of Choi et al. (2018), Table 2 — the clip
  // that minimises quantization MSE for bell-shaped distributions is a
  // linear combination of √E[w²] and E[|w|].  Values beyond the published
  // {2,3,4} entries are extrapolated; tests verify they beat max-|w|.
  double c1 = 3.12, c2 = 2.064;
  switch (bits) {
    case 2: c1 = 3.12; c2 = 2.064; break;
    case 3: c1 = 7.2; c2 = 6.085; break;
    case 4: c1 = 12.7; c2 = 12.19; break;
    case 5: c1 = 17.3; c2 = 17.01; break;
    case 6: c1 = 22.0; c2 = 21.9; break;
    default: c1 = 28.0; c2 = 28.1; break;  // ≥7 bits: near max-|w|
  }
  double sq = 0.0, ab = 0.0;
  for (float v : w.data()) {
    sq += static_cast<double>(v) * v;
    ab += std::fabs(v);
  }
  const double n = static_cast<double>(w.numel());
  const double clip = c1 * std::sqrt(sq / n) - c2 * (ab / n);
  // Guard against degenerate statistics (e.g. near-constant weights).
  const float fallback = std::max(w.max(), -w.min());
  if (!(clip > 0.0)) return std::max(fallback, 1e-8f);
  return static_cast<float>(clip);
}

void SawbWeightHook::quantize_into(const Tensor& w, Tensor& dst) {
  if (bits_ >= 32) {
    dst = w;
    return;
  }
  last_clip_ = clip_for(w, bits_);
  quantize_symmetric_into(w, bits_, last_clip_, dst);
}

Tensor SawbWeightHook::backward(const Tensor& w, Tensor grad_q) {
  if (bits_ >= 32) return grad_q;
  return mask_saturated(w, std::move(grad_q), last_clip_);
}

// ---- LQ-Nets ---------------------------------------------------------------

float LqNetsWeightHook::fit_scale(const Tensor& w, int bits,
                                  int iterations) {
  CCQ_CHECK(bits >= 2 && bits < 32, "fit_scale bits out of range");
  const float n = symmetric_levels(bits);
  // Initialise from the robust 2·E[|w|] heuristic, then alternate
  //   assignment:  q_i = clip(round(w_i/s), −n, n)
  //   refit:       s   = Σ w_i q_i / Σ q_i²
  // which is coordinate descent on ‖w − s·q‖².
  float s = std::max(2.0f * w.abs_mean() / n, 1e-8f);
  auto wp = w.data();
  for (int it = 0; it < iterations; ++it) {
    double num = 0.0, den = 0.0;
    for (float v : wp) {
      const float code = std::clamp(std::round(v / s), -n, n);
      num += static_cast<double>(v) * code;
      den += static_cast<double>(code) * code;
    }
    if (den <= 0.0) break;
    const float next = static_cast<float>(num / den);
    if (!(next > 0.0f)) break;
    if (std::fabs(next - s) < 1e-9f) {
      s = next;
      break;
    }
    s = next;
  }
  return s;
}

void LqNetsWeightHook::quantize_into(const Tensor& w, Tensor& dst) {
  if (bits_ >= 32) {
    dst = w;
    return;
  }
  last_scale_ = fit_scale(w, bits_);
  const float clip = last_scale_ * symmetric_levels(bits_);
  quantize_symmetric_into(w, bits_, clip, dst);
}

Tensor LqNetsWeightHook::backward(const Tensor& w, Tensor grad_q) {
  if (bits_ >= 32) return grad_q;
  const float clip = last_scale_ * symmetric_levels(bits_);
  return mask_saturated(w, std::move(grad_q), clip);
}

// ---- LSQ -------------------------------------------------------------------

LsqWeightHook::LsqWeightHook(std::string name)
    : step_(name + ".step", Tensor({1}, 0.1f)) {
  step_.weight_decay_scale = 0.0f;
}

void LsqWeightHook::quantize_into(const Tensor& w, Tensor& dst) {
  if (bits_ >= 32) {
    dst = w;
    return;
  }
  if (!initialised_) {
    // LSQ init: s = 2·E[|w|]/√Q_max.
    const float qmax = symmetric_levels(bits_);
    step_.value.at(0) =
        std::max(2.0f * w.abs_mean() / std::sqrt(qmax), 1e-6f);
    // Gradient scale g = 1/√(n·Q_max) folded into the learning rate.
    step_.lr_scale = 1.0f / std::sqrt(static_cast<float>(w.numel()) * qmax);
    initialised_ = true;
  }
  const float s = std::max(step_.value.at(0), 1e-8f);
  const float n = symmetric_levels(bits_);
  dst.resize(w.shape());
  auto wp = w.data();
  auto qp = dst.data();
  for (std::size_t i = 0; i < wp.size(); ++i) {
    qp[i] = std::clamp(std::round(wp[i] / s), -n, n) * s;
  }
}

Tensor LsqWeightHook::backward(const Tensor& w, Tensor grad_q) {
  if (bits_ >= 32) return grad_q;
  const float s = std::max(step_.value.at(0), 1e-8f);
  const float n = symmetric_levels(bits_);
  auto wp = w.data();
  auto gp = grad_q.data();
  double step_grad = 0.0;
  for (std::size_t i = 0; i < wp.size(); ++i) {
    const float z = wp[i] / s;
    if (z <= -n) {
      step_grad += static_cast<double>(gp[i]) * (-n);
      gp[i] = 0.0f;  // saturated low
    } else if (z >= n) {
      step_grad += static_cast<double>(gp[i]) * n;
      gp[i] = 0.0f;  // saturated high
    } else {
      // d(q)/d(s) = round(z) − z inside the active range.
      step_grad += static_cast<double>(gp[i]) * (std::round(z) - z);
    }
  }
  step_.grad.at(0) += static_cast<float>(step_grad);
  return grad_q;
}

void LsqWeightHook::collect_parameters(std::vector<nn::Parameter*>& out) {
  out.push_back(&step_);
}

float LsqWeightHook::grid_step() const {
  if (bits_ >= 32 || !initialised_) return 0.0f;
  return std::max(step_.value.at(0), 1e-8f);
}

// ---- PerChannel ------------------------------------------------------------

void PerChannelWeightHook::quantize_into(const Tensor& w, Tensor& dst) {
  if (bits_ >= 32) {
    dst = w;
    return;
  }
  CCQ_CHECK(w.rank() >= 1, "per-channel quantization needs a shaped tensor");
  const std::size_t channels = w.dim(0);
  const std::size_t per_channel = w.numel() / channels;
  CCQ_CHECK(per_channel > 0, "empty channel");
  last_clips_.assign(channels, 1e-8f);
  dst.resize(w.shape());
  auto wp = w.data();
  auto qp = dst.data();
  for (std::size_t c = 0; c < channels; ++c) {
    const float* row = wp.data() + c * per_channel;
    float clip = 1e-8f;
    for (std::size_t i = 0; i < per_channel; ++i) {
      clip = std::max(clip, std::fabs(row[i]));
    }
    last_clips_[c] = clip;
    float* out = qp.data() + c * per_channel;
    for (std::size_t i = 0; i < per_channel; ++i) {
      out[i] = quantize_symmetric(row[i], bits_, clip);
    }
  }
}

Tensor PerChannelWeightHook::backward(const Tensor& w, Tensor grad_q) {
  // max-|w| clips never saturate strictly, so the STE is the identity.
  (void)w;
  return grad_q;
}

// ---- MinMax ----------------------------------------------------------------

void MinMaxWeightHook::quantize_into(const Tensor& w, Tensor& dst) {
  if (bits_ >= 32) {
    dst = w;
    return;
  }
  if (auto_clip_) {
    clip_ = std::max({std::fabs(w.max()), std::fabs(w.min()), 1e-8f});
  }
  quantize_symmetric_into(w, bits_, clip_, dst);
}

Tensor MinMaxWeightHook::backward(const Tensor& w, Tensor grad_q) {
  if (bits_ >= 32) return grad_q;
  return mask_saturated(w, std::move(grad_q), clip_);
}

}  // namespace ccq::quant
