#include "ccq/hw/integer_engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <type_traits>
#include <utility>
#include <variant>

#include "ccq/common/telemetry.hpp"
#include "ccq/hw/fixed_point.hpp"
#include "ccq/nn/conv.hpp"
#include "ccq/nn/linear.hpp"
#include "ccq/nn/norm.hpp"
#include "ccq/nn/pool.hpp"
#include "ccq/quant/act_quant.hpp"
#include "ccq/quant/weight_hooks.hpp"

namespace ccq::hw {

namespace {

constexpr float kInputScale = 1.0f / 255.0f;  // 8-bit input quantization

/// Infer the uniform grid spacing of a quantized tensor from its distinct
/// values (the legacy path — hooks now report their step directly via
/// QuantizerHook::grid_step).  Returns 0 when the tensor is constant
/// (degenerate layer).
float infer_step(const Tensor& q) {
  std::set<float> values(q.data().begin(), q.data().end());
  float step = 0.0f;
  float prev = 0.0f;
  bool first = true;
  for (float v : values) {
    if (!first) {
      const float gap = v - prev;
      if (gap > 1e-12f && (step == 0.0f || gap < step)) step = gap;
    }
    prev = v;
    first = false;
  }
  return step;
}

/// Checked fallback around `infer_step` for hooks that do not report
/// grid_step(): after inferring the step from the tensor's distinct
/// values, verify every value actually sits on the half-step grid.  A
/// mis-inferred step (non-uniform grids such as per-channel clips) used
/// to corrupt the compiled codes silently; now it fails loudly, naming
/// the layer and the quantization policy.
float infer_step_checked(const Tensor& q, const std::string& layer,
                         const nn::QuantizerHook* hook) {
  const float step = infer_step(q);
  if (step == 0.0f) return 0.0f;  // constant tensor, caller substitutes 1
  const float half = step / 2.0f;
  for (float v : q.data()) {
    const float c = v / half;
    if (std::fabs(c - std::round(c)) > 1e-3f) {
      const auto* wh = dynamic_cast<const quant::WeightQuantHook*>(hook);
      const std::string policy = wh != nullptr ? wh->policy_name() : "unknown";
      throw Error("integer engine: layer '" + layer + "' (policy " + policy +
                  "): grid-step inference failed — weight value " +
                  std::to_string(v) + " is not on the inferred step " +
                  std::to_string(step) +
                  "; the quantizer hook must report grid_step() for "
                  "non-uniform grids");
    }
  }
  return step;
}

struct FoldedBn {
  std::vector<float> scale;  ///< γ/σ per channel
  std::vector<float> shift;  ///< β − γμ/σ per channel
};

FoldedBn fold_bn(const nn::BatchNorm2d* bn, std::size_t channels) {
  FoldedBn folded;
  folded.scale.assign(channels, 1.0f);
  folded.shift.assign(channels, 0.0f);
  if (bn == nullptr) return folded;
  // Access running stats / affine params through the public interface.
  const Tensor& mean = bn->running_mean();
  const Tensor& var = bn->running_var();
  auto* mutable_bn = const_cast<nn::BatchNorm2d*>(bn);
  const Tensor& gamma = mutable_bn->gamma().value;
  const Tensor& beta = mutable_bn->beta().value;
  for (std::size_t c = 0; c < channels; ++c) {
    const float inv_std = 1.0f / std::sqrt(var.at(c) + 1e-5f);
    folded.scale[c] = gamma.at(c) * inv_std;
    folded.shift[c] = beta.at(c) - gamma.at(c) * mean.at(c) * inv_std;
  }
  return folded;
}

/// Activation metadata from a quantized activation module.
void read_act(nn::Module* module, IntLayerPlan& plan) {
  if (auto* pact = dynamic_cast<quant::PactActivation*>(module)) {
    plan.has_act = true;
    plan.act_bits = pact->bits();
    plan.act_clip = std::max(pact->alpha(), 1e-3f);
  } else if (auto* clip = dynamic_cast<quant::ClipActQuant*>(module)) {
    plan.has_act = true;
    plan.act_bits = clip->bits();
    plan.act_clip = clip->clip();
  } else {
    throw Error("unsupported activation module in integer engine: " +
                module->type_name());
  }
}

float act_scale(const IntLayerPlan& plan) {
  CCQ_CHECK(plan.has_act, "layer has no activation grid");
  CCQ_CHECK(plan.act_bits < 16, "activation not quantized");
  return plan.act_clip /
         static_cast<float>((1u << plan.act_bits) - 1u);
}

}  // namespace

std::vector<std::int32_t> encode_doubled(const Tensor& q, float step,
                                         int bits, const std::string& layer) {
  CCQ_CHECK(step > 0.0f, "encode_doubled needs a positive grid step");
  std::vector<std::int32_t> codes;
  codes.reserve(q.numel());
  const float half = step / 2.0f;
  // Doubled codes of any b-bit grid (zero-centred or half-offset) lie in
  // ±2^b; anything beyond means the inferred step does not describe the
  // tensor, and lround would have narrowed it silently.
  const long envelope = 1L << bits;
  for (float v : q.data()) {
    const long c = std::lround(v / half);
    if (c > envelope || c < -envelope) {
      throw Error("integer engine: layer '" + layer + "': weight value " +
                  std::to_string(v) + " encodes to doubled code " +
                  std::to_string(c) + ", outside the " +
                  std::to_string(bits) + "-bit envelope of +/-" +
                  std::to_string(envelope));
    }
    codes.push_back(static_cast<std::int32_t>(c));
  }
  return codes;
}

IntegerNetwork IntegerNetwork::compile(models::QuantModel& model) {
  IntegerNetwork net;
  std::vector<IntLayerPlan> plans;
  nn::Sequential& seq = model.net();
  float input_scale = kInputScale;  // scale of the incoming activations

  auto compile_weights = [&](nn::Parameter& weight,
                             nn::QuantizerHook* hook,
                             std::size_t out_channels,
                             const FoldedBn& bn,
                             const Tensor* conv_bias,
                             IntLayerPlan& plan) {
    CCQ_CHECK(hook != nullptr, "layer has no weight quantizer");
    CCQ_CHECK(hook->bits() < 16,
              "integer engine requires quantized weights (<16 bits)");
    const Tensor q = hook->quantize(weight.value);
    // Prefer the hook's own grid metadata — the exact float the quantizer
    // snapped to, with no O(n log n) distinct-value walk.  Hooks that
    // cannot report a step (non-uniform grids) fall through to the
    // checked inference fallback.
    float step = hook->grid_step();
    if (step <= 0.0f) step = infer_step_checked(q, plan.name, hook);
    if (step == 0.0f) step = 1.0f;  // constant (all-zero) weights
    plan.weight_codes = encode_doubled(q, step, hook->bits(), plan.name);
    plan.weight_bits = hook->bits();
    plan.channel_scale.assign(out_channels, 0.0f);
    plan.bias.assign(out_channels, 0.0f);
    for (std::size_t c = 0; c < out_channels; ++c) {
      plan.channel_scale[c] =
          (step / 2.0f) * input_scale * bn.scale[c];
      const float base_bias =
          conv_bias != nullptr ? conv_bias->at(c) : 0.0f;
      plan.bias[c] = base_bias * bn.scale[c] + bn.shift[c];
    }
  };

  // Conv/linear plans are named after their registry unit (compile walks
  // the sequence in registration order), the rest after their type.
  std::size_t unit_idx = 0;
  auto unit_name = [&](const std::string& type, std::size_t i) {
    if (unit_idx < model.registry().size()) {
      return model.registry().unit(unit_idx++).name;
    }
    return type + "@" + std::to_string(i);
  };

  for (std::size_t i = 0; i < seq.size(); ++i) {
    nn::Module& module = seq.child(i);
    const std::string type = module.type_name();
    if (type == "Conv2d") {
      auto& conv = dynamic_cast<nn::Conv2d&>(module);
      IntLayerPlan plan;
      plan.kind = IntLayerPlan::Kind::kConv;
      plan.name = unit_name(type, i);
      plan.in_channels = conv.in_channels();
      plan.out_channels = conv.out_channels();
      plan.kernel = conv.kernel();
      plan.stride = conv.stride();
      plan.pad = conv.pad();
      // Optional BN directly after.
      const nn::BatchNorm2d* bn = nullptr;
      if (i + 1 < seq.size() &&
          seq.child(i + 1).type_name() == "BatchNorm2d") {
        bn = &dynamic_cast<nn::BatchNorm2d&>(seq.child(i + 1));
        ++i;
      }
      // Optional quantized activation after that.
      if (i + 1 < seq.size() &&
          (seq.child(i + 1).type_name() == "PactActivation" ||
           seq.child(i + 1).type_name() == "ClipActQuant")) {
        read_act(&seq.child(i + 1), plan);
        ++i;
      }
      const FoldedBn folded = fold_bn(bn, plan.out_channels);
      compile_weights(conv.weight(), conv.weight_quantizer(),
                      plan.out_channels, folded,
                      conv.has_bias() ? &conv.bias().value : nullptr, plan);
      if (plan.has_act) input_scale = act_scale(plan);
      plans.push_back(std::move(plan));
    } else if (type == "Linear") {
      auto& fc = dynamic_cast<nn::Linear&>(module);
      IntLayerPlan plan;
      plan.kind = IntLayerPlan::Kind::kLinear;
      plan.name = unit_name(type, i);
      plan.in_features = fc.in_features();
      plan.out_features = fc.out_features();
      if (i + 1 < seq.size() &&
          (seq.child(i + 1).type_name() == "PactActivation" ||
           seq.child(i + 1).type_name() == "ClipActQuant")) {
        read_act(&seq.child(i + 1), plan);
        ++i;
      }
      const FoldedBn identity = fold_bn(nullptr, plan.out_features);
      compile_weights(fc.weight(), fc.weight_quantizer(), plan.out_features,
                      identity, fc.has_bias() ? &fc.bias().value : nullptr,
                      plan);
      if (plan.has_act) input_scale = act_scale(plan);
      plans.push_back(std::move(plan));
    } else if (type == "MaxPool2d") {
      auto& pool = dynamic_cast<nn::MaxPool2d&>(module);
      IntLayerPlan plan;
      plan.kind = IntLayerPlan::Kind::kMaxPool;
      plan.name = type + "@" + std::to_string(i);
      plan.pool_kernel = pool.kernel();
      plan.pool_stride = pool.stride();
      plans.push_back(plan);
    } else if (type == "AvgPool2d") {
      auto& pool = dynamic_cast<nn::AvgPool2d&>(module);
      IntLayerPlan plan;
      plan.kind = IntLayerPlan::Kind::kAvgPool;
      plan.name = type + "@" + std::to_string(i);
      plan.pool_kernel = pool.kernel();
      plan.pool_stride = pool.stride();
      plans.push_back(plan);
    } else if (type == "GlobalAvgPool") {
      IntLayerPlan plan;
      plan.kind = IntLayerPlan::Kind::kGlobalAvgPool;
      plan.name = type + "@" + std::to_string(i);
      plans.push_back(plan);
    } else if (type == "Flatten") {
      IntLayerPlan plan;
      plan.kind = IntLayerPlan::Kind::kFlatten;
      plan.name = type + "@" + std::to_string(i);
      plans.push_back(plan);
    } else if (type == "Residual") {
      throw Error(
          "integer engine supports sequential topologies only; residual "
          "graphs run through the float simulation path");
    } else {
      throw Error("integer engine: unsupported module " + type);
    }
  }
  CCQ_CHECK(!plans.empty(), "empty model");
  net.rungs_.push_back(std::move(plans));
  net.rung_info_.push_back(RungInfo{});
  net.finalize_plans();
  return net;
}

IntegerNetwork IntegerNetwork::from_plans(std::vector<IntLayerPlan> plans) {
  CCQ_CHECK(!plans.empty(), "cannot build an integer network from 0 plans");
  IntegerNetwork net;
  net.rungs_.push_back(std::move(plans));
  net.rung_info_.push_back(RungInfo{});
  net.finalize_plans();
  return net;
}

IntegerNetwork IntegerNetwork::from_rungs(
    std::vector<std::vector<IntLayerPlan>> rungs, std::vector<RungInfo> info) {
  CCQ_CHECK(!rungs.empty(), "cannot build an integer network from 0 rungs");
  CCQ_CHECK(rungs.size() == info.size(),
            "rung info covers " + std::to_string(info.size()) +
                " rungs, plan sets cover " + std::to_string(rungs.size()));
  const std::vector<IntLayerPlan>& top = rungs.front();
  CCQ_CHECK(!top.empty(), "cannot build an integer network from 0 plans");
  for (std::size_t r = 1; r < rungs.size(); ++r) {
    CCQ_CHECK(rungs[r].size() == top.size(),
              "rung " + std::to_string(r) + " holds " +
                  std::to_string(rungs[r].size()) + " layers, rung 0 holds " +
                  std::to_string(top.size()));
    for (std::size_t i = 0; i < top.size(); ++i) {
      const IntLayerPlan& a = top[i];
      const IntLayerPlan& b = rungs[r][i];
      // Rungs are precision variants of one network: the layer sequence
      // and geometry are invariant, so check_input / shape pinning done
      // against rung 0 hold for every rung.
      CCQ_CHECK(a.name == b.name && a.kind == b.kind,
                "rung " + std::to_string(r) + " layer " + std::to_string(i) +
                    " ('" + b.name + "') does not match rung 0 ('" + a.name +
                    "')");
      CCQ_CHECK(a.in_channels == b.in_channels &&
                    a.out_channels == b.out_channels && a.kernel == b.kernel &&
                    a.stride == b.stride && a.pad == b.pad &&
                    a.in_features == b.in_features &&
                    a.out_features == b.out_features &&
                    a.pool_kernel == b.pool_kernel &&
                    a.pool_stride == b.pool_stride,
                "rung " + std::to_string(r) + " layer '" + b.name +
                    "' changes geometry across rungs");
    }
  }
  IntegerNetwork net;
  net.rungs_ = std::move(rungs);
  net.rung_info_ = std::move(info);
  net.finalize_plans();
  return net;
}

namespace {

/// One rung's finalize pass.  Static bound on |incoming activation
/// codes|, threaded layer to layer: the input snap is 8-bit (codes in
/// [0, 255]); a b-bit activation grid emits codes in [0, 2^b − 1];
/// pooling and flatten keep values on (or, for averages, requantized
/// back onto) the current grid, so they preserve the bound.  A layer
/// without a quantized activation grid (the classifier head) leaves the
/// grid for good: the engine has no float-activation datapath, so only
/// a flatten may follow it.
void finalize_rung(std::vector<IntLayerPlan>& plans, IgemmKernel requested) {
  std::int64_t in_bound = 255;
  const IntLayerPlan* producer = nullptr;  // the unquantized producer
  for (auto& plan : plans) {
    if (producer != nullptr && plan.kind != IntLayerPlan::Kind::kFlatten) {
      throw Error("integer engine: layer '" + plan.name +
                  "' follows '" + producer->name +
                  "', which has no quantized activation grid; only a "
                  "flatten may follow an unquantized producer (quantize "
                  "every layer but the last weighted one)");
    }
    if (plan.kind == IntLayerPlan::Kind::kConv ||
        plan.kind == IntLayerPlan::Kind::kLinear) {
      const bool conv = plan.kind == IntLayerPlan::Kind::kConv;
      const std::size_t rows =
          conv ? plan.out_channels : plan.out_features;
      const std::size_t depth =
          conv ? plan.in_channels * plan.kernel * plan.kernel
               : plan.in_features;
      plan.max_abs_code = igemm_max_abs(plan.weight_codes);
      plan.in_code_bound = in_bound;
      plan.accum = igemm_fits_int32(plan.max_abs_code, in_bound, depth)
                       ? IgemmAccum::kInt32
                       : IgemmAccum::kInt64;
      plan.igemm_kernel = igemm_select_kernel(requested, plan.max_abs_code,
                                              plan.in_code_bound, plan.accum);
      // Conv consumes the panel on the left (kWX, per-row epilogue);
      // linear on the right (kXW), so outputs land row-major (batch×out).
      plan.panel = igemm_pack(plan.weight_codes, rows, depth,
                              conv ? IgemmForm::kWX : IgemmForm::kXW,
                              plan.igemm_kernel);
      // Fused fixed-point requantization: fold channel_scale/bias and
      // the activation grid into int32-multiplier requant parameters so
      // the igemm epilogue writes the next layer's codes directly.
      // Fusion needs a quantized output grid and a static accumulator
      // bound inside make_requant's 2^61 budget — anything else keeps
      // the float epilogue.
      //
      // Artifact-loaded plans arrive with the per-channel `requant`
      // parameters populated and keep them verbatim (serving replays the
      // exporter's exact fixed-point path); only `out_qmax` / `acc_bound`
      // — exact integer functions of act_bits / weight codes / geometry,
      // not serialized — are rederived here.  Freshly compiled and
      // synthetic plans compute everything.
      const bool fusable = plan.has_act && plan.act_bits < 16;
      std::int64_t bound = -1;  // -1 = overflows the budget, unfusable
      if (fusable) {
        constexpr std::int64_t kBudget = std::int64_t{1} << 61;
        const auto w = static_cast<std::int64_t>(plan.max_abs_code);
        if (w == 0 || depth == 0) {
          bound = 0;
        } else if (in_bound <= kBudget / w &&
                   w * in_bound <= kBudget / static_cast<std::int64_t>(depth)) {
          bound = w * in_bound * static_cast<std::int64_t>(depth);
        }
      }
      if (!plan.requant.empty()) {
        CCQ_CHECK(fusable && bound >= 0,
                  "integer engine: layer '" + plan.name +
                      "' carries requant parameters but is not fusable "
                      "(inconsistent artifact)");
        plan.requant_fused = true;
        plan.out_qmax = static_cast<std::int32_t>((1 << plan.act_bits) - 1);
        plan.acc_bound = bound;
      } else if (bound >= 0) {
        const float out_scale = act_scale(plan);
        std::vector<Requant> rq(rows);
        bool ok = true;
        for (std::size_t c = 0; c < rows && ok; ++c) {
          const double ratio =
              static_cast<double>(plan.channel_scale[c]) / out_scale;
          const double bias_ratio =
              static_cast<double>(plan.bias[c]) / out_scale;
          ok = make_requant(ratio, bias_ratio, bound, rq[c]);
        }
        if (ok) {
          plan.requant = std::move(rq);
          plan.requant_fused = true;
          plan.out_qmax =
              static_cast<std::int32_t>((1 << plan.act_bits) - 1);
          plan.acc_bound = bound;
        }
      }
      if (plan.requant.empty()) plan.requant_fused = false;
      if (fusable) {
        in_bound = (std::int64_t{1} << plan.act_bits) - 1;
      } else {
        producer = &plan;
      }
    }
  }
}

}  // namespace

void IntegerNetwork::finalize_plans() {
  // $CCQ_IGEMM_KERNEL is read once for the whole network (kAuto when
  // unset); each layer then resolves it against its own static bounds,
  // so a 2-bit conv can run vec-packed while the int64-accumulating
  // classifier head falls back to scalar in the same net.  Multi-point
  // networks finalize every rung independently — each serving point
  // gets its own kernel selection, accumulator proof and requant
  // rederivation against its own bit widths.
  const IgemmKernel requested = igemm_requested_kernel();
  for (auto& plans : rungs_) finalize_rung(plans, requested);
}

const IntLayerPlan& IntegerNetwork::plan(std::size_t i) const {
  return plan(0, i);
}

const IntLayerPlan& IntegerNetwork::plan(std::size_t rung,
                                         std::size_t i) const {
  CCQ_CHECK(rung < rungs_.size(), "rung index out of range");
  CCQ_CHECK(i < rungs_[rung].size(), "plan index out of range");
  return rungs_[rung][i];
}

const RungInfo& IntegerNetwork::rung_info(std::size_t rung) const {
  CCQ_CHECK(rung < rung_info_.size(), "rung index out of range");
  return rung_info_[rung];
}

namespace {

/// Apply the layer's activation quantizer to a float tensor.
void apply_act(Tensor& x, const IntLayerPlan& plan) {
  if (!plan.has_act) return;
  auto xp = x.data();
  if (plan.act_bits >= 16) {
    for (auto& v : xp) v = std::clamp(v, 0.0f, plan.act_clip);
    return;
  }
  const float n = static_cast<float>((1u << plan.act_bits) - 1u);
  const float s = plan.act_clip / n;
  for (auto& v : xp) {
    v = std::clamp(std::round(std::clamp(v, 0.0f, plan.act_clip) / s),
                   0.0f, n) *
        s;
  }
}

// ---- code-domain helpers ---------------------------------------------------
//
// Activations flow layer to layer as integer *codes* on the current
// activation grid (u8 for grids up to 8 bits, i16 above; exact int32 on
// the reference backend) instead of a float tensor.  These helpers are
// templated on the code type, so both MAC backends share them.

/// Valid-window pool output extent (matches nn::MaxPool2d/AvgPool2d).
inline std::size_t pool_out(std::size_t in, std::size_t k, std::size_t s) {
  return (in - k) / s + 1;
}

/// Round-half-up integer mean of non-negative codes — the code-domain
/// equivalent of float-averaging grid values and re-snapping (means of
/// non-negative values round half away from zero = half up).
inline std::int64_t mean_code(std::int64_t sum, std::int64_t cnt) {
  return (2 * sum + cnt) / (2 * cnt);
}

/// Snap a float tensor whose values lie on (or near) the grid `scale`
/// onto integer codes in [0, qmax].  Used for the 8-bit input snap and
/// for re-entering the code domain after an unfused layer's apply_act
/// (where the snap is exact: every value is already k·scale).
template <typename T>
void snap_codes(const Tensor& t, float scale, std::int64_t qmax, T* dst) {
  auto p = t.data();
  for (std::size_t i = 0; i < p.size(); ++i) {
    dst[i] = static_cast<T>(
        std::clamp<long>(std::lround(p[i] / scale), 0L,
                         static_cast<long>(qmax)));
  }
}

/// Decode codes back to a float tensor: value = code · scale.
template <typename T>
Tensor decode_codes(const T* src, const Shape& shape, float scale,
                    Workspace& ws) {
  Tensor out = ws.tensor_uninit(shape);
  auto p = out.data();
  for (std::size_t i = 0; i < p.size(); ++i) {
    p[i] = static_cast<float>(src[i]) * scale;
  }
  return out;
}

/// Integer max pool over code planes (exact: max commutes with the
/// positive decode scale).
template <typename T>
void pool_max_codes(const T* src, T* dst, std::size_t n, std::size_t c,
                    std::size_t h, std::size_t w, std::size_t k,
                    std::size_t s) {
  const std::size_t oh = pool_out(h, k, s), ow = pool_out(w, k, s);
  for (std::size_t i = 0; i < n * c; ++i) {
    const T* plane = src + i * h * w;
    T* out = dst + i * oh * ow;
    for (std::size_t oy = 0; oy < oh; ++oy) {
      for (std::size_t ox = 0; ox < ow; ++ox) {
        T best = plane[oy * s * w + ox * s];
        for (std::size_t ky = 0; ky < k; ++ky) {
          for (std::size_t kx = 0; kx < k; ++kx) {
            best = std::max(best, plane[(oy * s + ky) * w + (ox * s + kx)]);
          }
        }
        out[oy * ow + ox] = best;
      }
    }
  }
}

/// Integer average pool over code planes; each window mean is
/// requantized back onto the grid with mean_code.
template <typename T>
void pool_avg_codes(const T* src, T* dst, std::size_t n, std::size_t c,
                    std::size_t h, std::size_t w, std::size_t k,
                    std::size_t s) {
  const std::size_t oh = pool_out(h, k, s), ow = pool_out(w, k, s);
  const auto cnt = static_cast<std::int64_t>(k * k);
  for (std::size_t i = 0; i < n * c; ++i) {
    const T* plane = src + i * h * w;
    T* out = dst + i * oh * ow;
    for (std::size_t oy = 0; oy < oh; ++oy) {
      for (std::size_t ox = 0; ox < ow; ++ox) {
        std::int64_t sum = 0;
        for (std::size_t ky = 0; ky < k; ++ky) {
          for (std::size_t kx = 0; kx < k; ++kx) {
            sum += plane[(oy * s + ky) * w + (ox * s + kx)];
          }
        }
        out[oy * ow + ox] = static_cast<T>(mean_code(sum, cnt));
      }
    }
  }
}

/// Integer global average pool: (n, c, h, w) codes → (n, c) codes.
template <typename T>
void gap_codes(const T* src, T* dst, std::size_t n, std::size_t c,
               std::size_t hw) {
  for (std::size_t i = 0; i < n * c; ++i) {
    std::int64_t sum = 0;
    for (std::size_t j = 0; j < hw; ++j) sum += src[i * hw + j];
    dst[i] = static_cast<T>(mean_code(sum, static_cast<std::int64_t>(hw)));
  }
}

/// The activation codes flowing between layers: at most one engaged
/// lease out of `Leases` (leases have deleted move-assignment, so the
/// store re-emplaces instead of assigning).  Empty once an unquantized
/// producer has left the grid.
template <typename... Leases>
class CodeStore {
 public:
  bool engaged() const { return lease_.index() != 0; }
  template <typename Lease>
  void adopt(Lease lease) {
    lease_.template emplace<Lease>(std::move(lease));
  }
  void reset() { lease_.template emplace<std::monostate>(); }
  /// Call `f` with the engaged typed code pointer.
  template <typename F>
  void visit(F&& f) const {
    std::visit(
        [&](const auto& lease) {
          if constexpr (!std::is_same_v<std::decay_t<decltype(lease)>,
                                        std::monostate>) {
            f(lease.data());
          }
        },
        lease_);
  }
  /// Replace the codes by `f(src, dst)` written into a fresh lease of
  /// `n` codes of the same type (pooling keeps the grid).
  template <typename F>
  void map(std::size_t n, Workspace& ws, F&& f) {
    std::visit(
        [&](auto& lease) {
          using Lease = std::decay_t<decltype(lease)>;
          if constexpr (!std::is_same_v<Lease, std::monostate>) {
            Lease out(ws, n);
            f(std::as_const(lease).data(), out.data());
            lease_.template emplace<Lease>(std::move(out));  // `lease` dies
          }
        },
        lease_);
  }

 private:
  std::variant<std::monostate, Leases...> lease_;
};

// ---- MAC backends ------------------------------------------------------------
//
// The layer walk below is written once and instantiated over two MAC
// backends (policy structs).  Each names the leases its codes travel in,
// hands out a fresh lease for a grid topping out at `qmax`, and runs one
// conv (`g` set) or linear (`g` null) layer over `n` images from codes
// `src` into `out`: the next layer's codes through the fused requant
// epilogue when `out` is integer, the float epilogue when it is float.

/// The serving datapath: u8/i16 codes into `IgemmOp`s executed by each
/// layer's selected kernel over its packed weight panel.
struct IgemmMac {
  using Codes = CodeStore<Workspace::ByteLease, Workspace::ShortLease>;

  template <typename F>
  static void with_lease(std::int64_t qmax, std::size_t n, Workspace& ws,
                         F&& f) {
    if (qmax <= 255) {
      f(ws.bytes(n));
    } else {
      f(ws.shorts(n));
    }
  }

  template <typename TIn, typename TOut>
  static void run(const IntLayerPlan& plan, std::size_t n,
                  const ConvGeometry* g, const TIn* src, TOut* out,
                  Workspace& ws, const ExecContext& ctx) {
    IgemmOp op;
    op.panel = &plan.panel;
    op.accum = plan.accum;
    op.x_bound = plan.in_code_bound;
    op.ws = &ws;
    if constexpr (std::is_same_v<TOut, float>) {
      op.epilogue = {plan.channel_scale.data(), plan.bias.data()};
    } else {
      op.requant = plan.requant.data();
      op.requant_qmax = plan.out_qmax;
    }
    if (g == nullptr) {
      op.form = IgemmForm::kXW;
      op.m = n;
      op.n = plan.out_features;
      op.k = plan.in_features;
      set_x(op, src);
      set_out(op, out);
      igemm_run(op, ctx);
      return;
    }
    // Conv consumes the panel on the left: one igemm per image over its
    // im2col'd codes.
    op.form = IgemmForm::kWX;
    op.m = plan.out_channels;
    op.n = g->out_spatial();
    op.k = g->patch_size();
    const std::size_t in_stride = g->in_channels * g->in_h * g->in_w;
    Lease<TIn> cols(ws, op.k * op.n);
    for (std::size_t img = 0; img < n; ++img) {
      im2col(src + img * in_stride, *g, cols.data(), ctx);
      set_x(op, static_cast<const TIn*>(cols.data()));
      set_out(op, out + img * op.m * op.n);
      igemm_run(op, ctx);
    }
  }

 private:
  template <typename T>
  using Lease = std::conditional_t<std::is_same_v<T, std::uint8_t>,
                                   Workspace::ByteLease, Workspace::ShortLease>;

  template <typename T>
  static void set_x(IgemmOp& op, const T* x) {
    if constexpr (std::is_same_v<T, std::uint8_t>) {
      op.x8 = x;
    } else {
      op.x16 = x;
    }
  }
  template <typename T>
  static void set_out(IgemmOp& op, T* out) {
    if constexpr (std::is_same_v<T, std::uint8_t>) {
      op.out8 = out;
    } else if constexpr (std::is_same_v<T, std::int16_t>) {
      op.out16 = out;
    } else {
      op.c = out;
    }
  }
};

/// The specification oracle: exact int32 codes, naive triple loops with
/// unconditional int64 accumulation, and `requant_apply` per output —
/// no packing, blocking, narrowing or kernel selection, so it checks
/// all of those in the serving backend independently.
struct ReferenceMac {
  using Codes = CodeStore<Workspace::IntLease>;

  template <typename F>
  static void with_lease(std::int64_t /*qmax*/, std::size_t n, Workspace& ws,
                         F&& f) {
    f(ws.ints(n));
  }

  template <typename TOut>
  static void run(const IntLayerPlan& plan, std::size_t n,
                  const ConvGeometry* g, const std::int32_t* src, TOut* out,
                  Workspace& ws, const ExecContext& ctx) {
    const auto store = [&](TOut& dst, std::size_t ch, std::int64_t acc) {
      if constexpr (std::is_same_v<TOut, float>) {
        dst = static_cast<float>(acc) * plan.channel_scale[ch] + plan.bias[ch];
      } else {
        dst = requant_apply(acc, plan.requant[ch], plan.out_qmax);
      }
    };
    if (g == nullptr) {
      const std::size_t k = plan.in_features, m = plan.out_features;
      for (std::size_t img = 0; img < n; ++img) {
        const std::int32_t* arow = src + img * k;
        for (std::size_t oc = 0; oc < m; ++oc) {
          const std::int32_t* wrow = plan.weight_codes.data() + oc * k;
          std::int64_t acc = 0;
          for (std::size_t p = 0; p < k; ++p) {
            acc += static_cast<std::int64_t>(wrow[p]) *
                   static_cast<std::int64_t>(arow[p]);
          }
          store(out[img * m + oc], oc, acc);
        }
      }
      return;
    }
    const std::size_t patch = g->patch_size(), spatial = g->out_spatial();
    const std::size_t in_stride = g->in_channels * g->in_h * g->in_w;
    Workspace::IntLease cols = ws.ints(patch * spatial);
    for (std::size_t img = 0; img < n; ++img) {
      im2col(src + img * in_stride, *g, cols.data(), ctx);
      TOut* dst = out + img * plan.out_channels * spatial;
      // Integer MACs are exact, so any partition over the disjoint
      // output-channel rows is trivially deterministic.
      parallel_for(ctx, plan.out_channels, 4,
                   [&](std::size_t oc0, std::size_t oc1) {
        for (std::size_t oc = oc0; oc < oc1; ++oc) {
          const std::int32_t* wrow = plan.weight_codes.data() + oc * patch;
          for (std::size_t s = 0; s < spatial; ++s) {
            std::int64_t acc = 0;  // the integer MAC datapath
            for (std::size_t p = 0; p < patch; ++p) {
              acc += static_cast<std::int64_t>(wrow[p]) *
                     static_cast<std::int64_t>(cols.data()[p * spatial + s]);
            }
            store(dst[oc * spatial + s], oc, acc);
          }
        }
      });
    }
  }
};

/// The one layer walk behind forward and forward_reference.  The input
/// is snapped onto its 8-bit grid; codes then flow through every layer
/// of rung `rung` over backend `Mac` and are decoded once at the edge.
/// An unfused conv/linear runs the float epilogue: with a quantized
/// activation (make_requant refused the layer) its output snaps back
/// into codes, without one it is the result — finalize_plans lets only
/// flattens follow an unquantized producer.
template <typename Mac>
Tensor walk(const std::vector<std::vector<IntLayerPlan>>& rungs,
            std::size_t rung, const Tensor& x, Workspace& ws,
            const ExecContext& ctx) {
  CCQ_CHECK(rung < rungs.size(), "rung index out of range");
  CCQ_CHECK(x.rank() == 4, "integer engine expects NCHW input");
  typename Mac::Codes codes;
  Tensor act;
  Shape shape = x.shape();
  float scale = kInputScale;
  const auto snap = [&](const Tensor& t, std::int64_t qmax) {
    telemetry::ScopedTimer timer(telemetry::Timer::kHwRequant);
    Mac::with_lease(qmax, t.numel(), ws, [&](auto lease) {
      snap_codes(t, scale, qmax, lease.data());
      codes.adopt(std::move(lease));
    });
  };
  snap(x, 255);  // standard 8-bit input quantization

  for (const auto& plan : rungs[rung]) {
    switch (plan.kind) {
      case IntLayerPlan::Kind::kConv:
      case IntLayerPlan::Kind::kLinear: {
        const std::size_t n = shape[0];
        const bool conv = plan.kind == IntLayerPlan::Kind::kConv;
        ConvGeometry g{};
        Shape out_shape;
        if (conv) {
          g = ConvGeometry{.in_channels = plan.in_channels,
                           .in_h = shape[2],
                           .in_w = shape[3],
                           .kernel = plan.kernel,
                           .stride = plan.stride,
                           .pad = plan.pad};
          out_shape = {n, plan.out_channels, g.out_h(), g.out_w()};
        } else {
          CCQ_CHECK(shape.size() == 2 && shape[1] == plan.in_features,
                    "linear input mismatch in integer engine");
          out_shape = {n, plan.out_features};
        }
        const ConvGeometry* geom = conv ? &g : nullptr;
        if (plan.requant_fused) {
          // The epilogue writes the next layer's codes directly; no
          // float tensor is materialised at the boundary.
          Mac::with_lease(plan.out_qmax, shape_numel(out_shape), ws,
                          [&](auto out) {
            codes.visit([&](const auto* src) {
              Mac::run(plan, n, geom, src, out.data(), ws, ctx);
            });
            codes.adopt(std::move(out));
          });
          scale = act_scale(plan);
        } else {
          Tensor out = ws.tensor_uninit(out_shape);
          codes.visit([&](const auto* src) {
            Mac::run(plan, n, geom, src, out.data().data(), ws, ctx);
          });
          codes.reset();
          apply_act(out, plan);
          if (plan.has_act && plan.act_bits < 16) {
            // Exact re-entry: apply_act put every value on the grid.
            scale = act_scale(plan);
            snap(out, (std::int64_t{1} << plan.act_bits) - 1);
            ws.recycle(std::move(out));
          } else {
            act = std::move(out);
          }
        }
        shape = out_shape;
        break;
      }
      case IntLayerPlan::Kind::kMaxPool:
      case IntLayerPlan::Kind::kAvgPool: {
        const std::size_t n = shape[0], c = shape[1], h = shape[2],
                          w = shape[3];
        const std::size_t k = plan.pool_kernel, s = plan.pool_stride;
        const Shape out_shape = {n, c, pool_out(h, k, s), pool_out(w, k, s)};
        if (plan.kind == IntLayerPlan::Kind::kAvgPool) {
          telemetry::ScopedTimer timer(telemetry::Timer::kHwRequant);
          codes.map(shape_numel(out_shape), ws,
                    [&](const auto* src, auto* dst) {
            pool_avg_codes(src, dst, n, c, h, w, k, s);
          });
        } else {
          codes.map(shape_numel(out_shape), ws,
                    [&](const auto* src, auto* dst) {
            pool_max_codes(src, dst, n, c, h, w, k, s);
          });
        }
        shape = out_shape;
        break;
      }
      case IntLayerPlan::Kind::kGlobalAvgPool: {
        const std::size_t n = shape[0], c = shape[1];
        const std::size_t hw = shape[2] * shape[3];
        telemetry::ScopedTimer timer(telemetry::Timer::kHwRequant);
        codes.map(n * c, ws, [&](const auto* src, auto* dst) {
          gap_codes(src, dst, n, c, hw);
        });
        shape = {n, c};
        break;
      }
      case IntLayerPlan::Kind::kFlatten:
        // Shape-only: codes/float storage is untouched.
        shape = {shape[0], shape_numel(shape) / shape[0]};
        if (!codes.engaged()) act.resize(shape);
        break;
    }
  }
  if (codes.engaged()) {
    codes.visit(
        [&](const auto* src) { act = decode_codes(src, shape, scale, ws); });
  }
  return act;
}

}  // namespace

Tensor IntegerNetwork::forward(const Tensor& x) const {
  return forward(x, Workspace::scratch());
}

Tensor IntegerNetwork::forward(const Tensor& x, Workspace& ws) const {
  return forward(x, ws, ExecContext::global());
}

Tensor IntegerNetwork::forward(const Tensor& x, Workspace& ws,
                               const ExecContext& ctx) const {
  return forward(x, ws, ctx, 0);
}

Tensor IntegerNetwork::forward(const Tensor& x, Workspace& ws,
                               const ExecContext& ctx,
                               std::size_t rung) const {
  return walk<IgemmMac>(rungs_, rung, x, ws, ctx);
}

Tensor IntegerNetwork::forward_reference(const Tensor& x) const {
  return forward_reference(x, Workspace::scratch(), ExecContext::global());
}

Tensor IntegerNetwork::forward_reference(const Tensor& x, Workspace& ws,
                                         const ExecContext& ctx) const {
  return forward_reference(x, ws, ctx, 0);
}

Tensor IntegerNetwork::forward_reference(const Tensor& x, Workspace& ws,
                                         const ExecContext& ctx,
                                         std::size_t rung) const {
  return walk<ReferenceMac>(rungs_, rung, x, ws, ctx);
}

std::size_t IntegerNetwork::macs_per_sample(std::size_t h,
                                            std::size_t w) const {
  // Geometry is invariant across rungs (from_rungs checks it), so the
  // MAC count and input validation below read rung 0.
  std::size_t total = 0;
  std::size_t cur_h = h, cur_w = w;
  for (const auto& plan : rungs_.front()) {
    switch (plan.kind) {
      case IntLayerPlan::Kind::kConv: {
        const ConvGeometry g{.in_channels = plan.in_channels,
                             .in_h = cur_h,
                             .in_w = cur_w,
                             .kernel = plan.kernel,
                             .stride = plan.stride,
                             .pad = plan.pad};
        total += plan.out_channels * g.patch_size() * g.out_spatial();
        cur_h = g.out_h();
        cur_w = g.out_w();
        break;
      }
      case IntLayerPlan::Kind::kLinear:
        total += plan.in_features * plan.out_features;
        break;
      case IntLayerPlan::Kind::kMaxPool:
      case IntLayerPlan::Kind::kAvgPool:
        cur_h = (cur_h - plan.pool_kernel) / plan.pool_stride + 1;
        cur_w = (cur_w - plan.pool_kernel) / plan.pool_stride + 1;
        break;
      case IntLayerPlan::Kind::kGlobalAvgPool:
      case IntLayerPlan::Kind::kFlatten:
        cur_h = cur_w = 1;
        break;
    }
  }
  return total;
}

void IntegerNetwork::check_input(std::size_t channels, std::size_t height,
                                 std::size_t width) const {
  const std::string geometry = std::to_string(channels) + "x" +
                               std::to_string(height) + "x" +
                               std::to_string(width);
  CCQ_CHECK(channels != 0 && height != 0 && width != 0,
            "input sample " + geometry + " has a zero dimension");
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  CCQ_CHECK(height <= kMax / channels && width <= kMax / (channels * height),
            "input sample " + geometry + " overflows size_t");
  bool spatial = true;  // CHW code/activation map vs flattened features
  std::size_t c = channels, h = height, w = width;
  std::size_t features = 0;
  for (const auto& plan : rungs_.front()) {
    switch (plan.kind) {
      case IntLayerPlan::Kind::kConv: {
        CCQ_CHECK(spatial, "conv layer " + plan.name +
                               " reached after the activation map was "
                               "flattened (input sample " +
                               geometry + ")");
        CCQ_CHECK(c == plan.in_channels,
                  "conv layer " + plan.name + " expects " +
                      std::to_string(plan.in_channels) +
                      " input channels but input sample " + geometry +
                      " reaches it with " + std::to_string(c));
        CCQ_CHECK(h + 2 * plan.pad >= plan.kernel &&
                      w + 2 * plan.pad >= plan.kernel,
                  "conv layer " + plan.name + " kernel " +
                      std::to_string(plan.kernel) +
                      " exceeds its padded input for input sample " +
                      geometry);
        c = plan.out_channels;
        h = (h + 2 * plan.pad - plan.kernel) / plan.stride + 1;
        w = (w + 2 * plan.pad - plan.kernel) / plan.stride + 1;
        break;
      }
      case IntLayerPlan::Kind::kLinear:
        CCQ_CHECK(!spatial, "linear layer " + plan.name +
                                " reached with an unflattened activation "
                                "map (input sample " +
                                geometry + ")");
        CCQ_CHECK(features == plan.in_features,
                  "linear layer " + plan.name + " expects " +
                      std::to_string(plan.in_features) +
                      " features but input sample " + geometry +
                      " reaches it with " + std::to_string(features));
        features = plan.out_features;
        break;
      case IntLayerPlan::Kind::kMaxPool:
      case IntLayerPlan::Kind::kAvgPool:
        CCQ_CHECK(spatial, "pool layer " + plan.name +
                               " reached after the activation map was "
                               "flattened (input sample " +
                               geometry + ")");
        CCQ_CHECK(h >= plan.pool_kernel && w >= plan.pool_kernel,
                  "pool layer " + plan.name + " window " +
                      std::to_string(plan.pool_kernel) +
                      " exceeds its input for input sample " + geometry);
        h = (h - plan.pool_kernel) / plan.pool_stride + 1;
        w = (w - plan.pool_kernel) / plan.pool_stride + 1;
        break;
      case IntLayerPlan::Kind::kGlobalAvgPool:
        CCQ_CHECK(spatial, "global-avg-pool layer " + plan.name +
                               " reached after the activation map was "
                               "flattened (input sample " +
                               geometry + ")");
        spatial = false;
        features = c;
        break;
      case IntLayerPlan::Kind::kFlatten:
        if (spatial) {
          // Checked product: conv layers can grow the channel count, so
          // the entry overflow guard does not bound c·h·w here.
          CCQ_CHECK(h <= kMax / c && w <= kMax / (c * h),
                    "flatten layer " + plan.name +
                        " feature count overflows size_t for input sample " +
                        geometry);
          spatial = false;
          features = c * h * w;
        }
        break;
    }
  }
}

}  // namespace ccq::hw
