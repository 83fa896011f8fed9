#include "ccq/hw/integer_engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <type_traits>
#include <optional>
#include <utility>

#include "ccq/common/telemetry.hpp"
#include "ccq/hw/fixed_point.hpp"
#include "ccq/nn/conv.hpp"
#include "ccq/nn/linear.hpp"
#include "ccq/nn/norm.hpp"
#include "ccq/nn/pool.hpp"
#include "ccq/quant/act_quant.hpp"
#include "ccq/quant/weight_hooks.hpp"
#include "ccq/tensor/vec4.hpp"

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

/// The engine's weight-grid ceiling: the paper starts every layer at 8
/// bits and only lowers it, and doubled 8-bit codes (±256) against u8
/// activations keep int32 sums exact to depth 32 896.
void check_weight_bits(const std::string& layer, int bits) {
  if (bits > 8) {
    throw Error("integer engine: layer '" + layer + "' has a " +
                std::to_string(bits) +
                "-bit weight grid; the engine serves weight grids of at "
                "most 8 bits");
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
    check_weight_bits(plan.name, hook->bits());
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
  net.plans_ = std::move(plans);
  net.finalize_plans();
  return net;
}

IntegerNetwork IntegerNetwork::from_plans(std::vector<IntLayerPlan> plans) {
  CCQ_CHECK(!plans.empty(), "cannot build an integer network from 0 plans");
  IntegerNetwork net;
  net.plans_ = std::move(plans);
  net.finalize_plans();
  return net;
}

namespace {

/// A conv's weight codes permuted from their serialized (oc, c, ky, kx)
/// order into the (oc, ky, kx, c) order of its channels-last patches.
std::vector<std::int32_t> channels_last_codes(const IntLayerPlan& plan) {
  const std::size_t c = plan.in_channels, k = plan.kernel;
  CCQ_CHECK(plan.weight_codes.size() == plan.out_channels * c * k * k,
            "integer engine: layer '" + plan.name +
                "' weight code count does not match its geometry");
  std::vector<std::int32_t> out(plan.weight_codes.size());
  for (std::size_t oc = 0; oc < plan.out_channels; ++oc) {
    for (std::size_t ch = 0; ch < c; ++ch) {
      for (std::size_t t = 0; t < k * k; ++t) {  // t = ky·k + kx
        out[(oc * k * k + t) * c + ch] =
            plan.weight_codes[(oc * c + ch) * k * k + t];
      }
    }
  }
  return out;
}

/// The epilogues index `channel_scale`, `bias` and `requant` by output
/// channel, and requant_apply's rounding shift is defined on [1, 62]
/// only, so a plan whose per-channel vectors are short or long, or whose
/// requant carries a shift outside that range, is rejected by name
/// instead of reading past a vector or shifting by an undefined amount.
void check_per_channel(const IntLayerPlan& plan, std::size_t channels) {
  const auto check_count = [&](const char* what, std::size_t count) {
    if (count != channels) {
      throw Error("integer engine: layer '" + plan.name + "' has " +
                  std::to_string(count) + " " + what + " entries for " +
                  std::to_string(channels) + " output channels");
    }
  };
  check_count("channel_scale", plan.channel_scale.size());
  check_count("bias", plan.bias.size());
  if (plan.requant.empty()) return;
  check_count("requant", plan.requant.size());
  for (std::size_t c = 0; c < channels; ++c) {
    const std::int32_t shift = plan.requant[c].shift;
    if (shift < 1 || shift > 62) {
      throw Error("integer engine: layer '" + plan.name +
                  "' has requant shift " + std::to_string(shift) +
                  " on output channel " + std::to_string(c) +
                  "; shifts must lie in [1, 62]");
    }
  }
}

/// The finalize pass.  Static bound on |incoming activation
/// codes|, threaded layer to layer: the input snap is 8-bit (codes in
/// [0, 255]); a b-bit activation grid emits codes in [0, 2^b − 1];
/// pooling and flatten keep values on (or, for averages, requantized
/// back onto) the current grid, so they preserve the bound.  A layer
/// without a quantized activation grid (the classifier head) leaves the
/// grid for good: the engine has no float-activation datapath, so only
/// a flatten may follow it.  Every conv/linear layer must meet the 8-bit
/// ceiling and the int32 proof; the error names the layer.
void finalize(std::vector<IntLayerPlan>& plans, IgemmKernel requested) {
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
      check_weight_bits(plan.name, plan.weight_bits);
      // A grid of 16 bits or more is the unquantized head's clamp.
      const bool quantized_act = plan.has_act && plan.act_bits < 16;
      if (quantized_act && (plan.act_bits < 1 || plan.act_bits > 8)) {
        throw Error("integer engine: layer '" + plan.name + "' has a " +
                    std::to_string(plan.act_bits) +
                    "-bit activation grid; the engine serves quantized "
                    "activation grids of 1 to 8 bits");
      }
      const bool conv = plan.kind == IntLayerPlan::Kind::kConv;
      const std::size_t rows =
          conv ? plan.out_channels : plan.out_features;
      const std::size_t depth =
          conv ? plan.in_channels * plan.kernel * plan.kernel
               : plan.in_features;
      plan.max_abs_code = igemm_max_abs(plan.weight_codes);
      plan.in_code_bound = in_bound;
      if (!igemm_fits_int32(plan.max_abs_code, in_bound, depth)) {
        throw Error("integer engine: layer '" + plan.name +
                    "' does not fit int32 accumulation: max |weight code| " +
                    std::to_string(plan.max_abs_code) +
                    " x activation code bound " + std::to_string(in_bound) +
                    " x depth " + std::to_string(depth) +
                    " exceeds 2147483647");
      }
      check_per_channel(plan, rows);
      plan.igemm_kernel =
          igemm_select_kernel(requested, plan.max_abs_code, in_bound);
      // Both read their patches in place, so the panel rows follow the
      // channels-last patch order: (ky, kx, c) for a conv, whose codes
      // are serialized (c, ky, kx), one run per kernel row; a linear
      // layer is the one-run case.
      plan.panel = igemm_pack(conv ? channels_last_codes(plan)
                                   : plan.weight_codes,
                              rows, depth, plan.igemm_kernel,
                              conv ? plan.kernel : 1);
      // Fused fixed-point requantization: fold channel_scale/bias and
      // the activation grid into int32-multiplier requant parameters so
      // the igemm epilogue writes the next layer's codes directly.
      // Fusion needs a quantized output grid and parameters make_requant
      // accepts for the layer's accumulator bound — anything else keeps
      // the float epilogue.
      //
      // Artifact-loaded plans arrive with the per-channel `requant`
      // parameters populated and keep them verbatim (serving replays the
      // exporter's exact fixed-point path); only `out_qmax` / `acc_bound`
      // — exact integer functions of act_bits / weight codes / geometry,
      // not serialized — are rederived here.  Freshly compiled and
      // synthetic plans compute everything.
      const std::int64_t bound = std::int64_t{plan.max_abs_code} * in_bound *
                                 static_cast<std::int64_t>(depth);
      if (!plan.requant.empty()) {
        CCQ_CHECK(quantized_act,
                  "integer engine: layer '" + plan.name +
                      "' carries requant parameters but is not fusable "
                      "(inconsistent artifact)");
        plan.requant_fused = true;
        plan.out_qmax = static_cast<std::int32_t>((1 << plan.act_bits) - 1);
        plan.acc_bound = bound;
      } else if (quantized_act) {
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
      if (quantized_act) {
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
  // so a 2-bit conv can run vec-packed while an 8-bit layer runs vec16
  // in the same net.
  finalize(plans_, igemm_requested_kernel());
}

const IntLayerPlan& IntegerNetwork::plan(std::size_t i) const {
  CCQ_CHECK(i < plans_.size(), "plan index out of range");
  return plans_[i];
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
// activation grid (u8; exact int32 on the reference backend) instead of
// a float tensor, stored channels-last — (N, H, W, C) — while the map is
// spatial, so each conv reads its patches as contiguous channel runs and
// its epilogue writes the next map without a transpose.  On the serving
// backend a map that feeds a conv also carries that conv's zero border,
// written by the map's producer, so the kernels never test for padding
// taps.  The walk keeps the logical NCHW shape; only the storage order
// differs, and it is undone wherever the layout becomes visible: a
// flatten of a spatial map and the final decode.  These helpers are
// templated on the code type, so both MAC backends share them.

/// Storage of one code map: `n` images of (h + 2·pad) × (w + 2·pad) × c
/// codes whose pad-wide border is zero, then kIgemmSlack zero codes of
/// tail slack that a kernel's last vector step may read.  A feature map
/// (n, c) is the 1×1 case.
struct MapLayout {
  std::size_t n = 0, h = 1, w = 1, c = 0, pad = 0;

  std::size_t pitch() const { return (w + 2 * pad) * c; }
  std::size_t image() const { return (h + 2 * pad) * pitch(); }
  std::size_t size() const { return n * image() + kIgemmSlack; }
  /// Offset of pixel (img, y, x)'s first channel.
  std::size_t at(std::size_t img, std::size_t y, std::size_t x) const {
    return img * image() + (y + pad) * pitch() + (x + pad) * c;
  }
};

/// The storage of a map of logical shape `s` (NCHW, or (n, features))
/// bordered by `pad`; feature maps feed no conv, so they carry none.
MapLayout map_layout(const Shape& s, std::size_t pad) {
  if (s.size() == 4) return {s[0], s[2], s[3], s[1], pad};
  return {s[0], 1, 1, shape_numel(s) / s[0], 0};
}

/// Lease a map of layout `m` with its border and tail slack zeroed; its
/// producer writes the interior.
template <typename Lease>
Lease new_map(const MapLayout& m, Workspace& ws) {
  Lease lease(ws, m.size());
  auto* dst = lease.data();
  using T = std::remove_reference_t<decltype(*dst)>;
  if (m.pad > 0) {
    const std::size_t pitch = m.pitch(), edge = m.pad * m.c;
    for (std::size_t img = 0; img < m.n; ++img) {
      T* map = dst + img * m.image();
      std::fill_n(map, m.pad * pitch, T{0});
      std::fill_n(map + (m.pad + m.h) * pitch, m.pad * pitch, T{0});
      for (std::size_t y = m.pad; y < m.pad + m.h; ++y) {
        std::fill_n(map + y * pitch, edge, T{0});
        std::fill_n(map + (y + 1) * pitch - edge, edge, T{0});
      }
    }
  }
  std::fill_n(dst + m.n * m.image(), kIgemmSlack, T{0});
  return lease;
}

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

/// snap_code on four lanes: the same float expression lane by lane, so
/// each lane's code equals the scalar one for every input.
inline vec::vi4 snap_code4(vec::v4 v, float scale, float qmax) {
  const vec::v4 zero = vec::splat(0.0f), top = vec::splat(qmax);
  vec::v4 q = v / vec::splat(scale);
  q = zero < q ? q : zero;  // std::max(0, q): a NaN lane gives 0
  q = top < q ? top : q;    // std::min(q, qmax): +Inf saturates
  const vec::vi4 t = __builtin_convertvector(q, vec::vi4);
  const vec::v4 frac = q - __builtin_convertvector(t, vec::v4);
  return t - (frac >= vec::splat(0.5f));  // a true lane is −1
}

/// Snap the (N, C, H, W) float input onto its 8-bit grid, four pixels of
/// an image row at a time, transposing into the channels-last map `out`.
template <typename T>
void snap_input(const Tensor& x, float scale, const MapLayout& out, T* dst) {
  const std::size_t c = out.c, w = out.w;
  const float* src = x.data().data();
  for (std::size_t img = 0; img < out.n; ++img) {
    for (std::size_t ch = 0; ch < c; ++ch) {
      for (std::size_t y = 0; y < out.h; ++y, src += w) {
        T* row = dst + out.at(img, y, 0) + ch;
        vec::for_blocks(w, [&](std::size_t i, std::size_t k) {
          const vec::vi4 codes = snap_code4(vec::load4(src + i, k), scale,
                                            255.0f);
          for (std::size_t l = 0; l < k; ++l) {
            row[(i + l) * c] = static_cast<T>(codes[l]);
          }
        });
      }
    }
  }
}

/// Snap float values already on the grid `scale` back into codes — the
/// re-entry after an unfused layer's apply_act, where the snap is exact
/// because every value is already k·scale.  `t` holds the map's interior
/// channels-last and unbordered.
template <typename T>
void snap_codes(const Tensor& t, float scale, std::int32_t qmax,
                const MapLayout& out, T* dst) {
  const float* src = t.data().data();
  const std::size_t run = out.w * out.c;  // one interior row
  for (std::size_t img = 0; img < out.n; ++img) {
    for (std::size_t y = 0; y < out.h; ++y, src += run) {
      T* row = dst + out.at(img, y, 0);
      for (std::size_t i = 0; i < run; ++i) {
        row[i] = static_cast<T>(snap_code(src[i], scale, qmax));
      }
    }
  }
}

/// Reorder channels-last (n, hw, c) storage into (n, c, hw), converting
/// each element with `f`.  The flatten of a spatial map and the final
/// decode use it, so features and outputs keep the NCHW order trained
/// weights and callers expect.
template <typename S, typename D, typename F>
void to_nchw(const S* src, D* dst, std::size_t n, std::size_t c,
             std::size_t hw, F&& f) {
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t ch = 0; ch < c; ++ch) {
      const S* in = src + i * hw * c + ch;
      D* out = dst + (i * c + ch) * hw;
      for (std::size_t p = 0; p < hw; ++p) out[p] = f(in[p * c]);
    }
  }
}

/// Decode codes back to a float tensor: value = code · scale, in NCHW
/// order for a spatial (rank-4) shape.
template <typename T>
Tensor decode_codes(const T* src, const Shape& shape, float scale,
                    Workspace& ws) {
  Tensor out = ws.tensor_uninit(shape);
  const auto decode = [scale](T code) {
    return static_cast<float>(code) * scale;
  };
  float* dst = out.data().data();
  if (shape.size() == 4) {
    to_nchw(src, dst, shape[0], shape[1], shape[2] * shape[3], decode);
  } else {
    for (std::size_t i = 0; i < out.numel(); ++i) dst[i] = decode(src[i]);
  }
  return out;
}

/// Integer max pool over channels-last code maps (exact: max commutes
/// with the positive decode scale), from an unbordered map into `out`.
template <typename T>
void pool_max_codes(const T* src, T* dst, const MapLayout& out,
                    std::size_t h, std::size_t w, std::size_t k,
                    std::size_t s) {
  const std::size_t c = out.c;
  for (std::size_t i = 0; i < out.n; ++i) {
    for (std::size_t oy = 0; oy < out.h; ++oy) {
      for (std::size_t ox = 0; ox < out.w; ++ox) {
        T* o = dst + out.at(i, oy, ox);
        const T* corner = src + ((i * h + oy * s) * w + ox * s) * c;
        std::copy(corner, corner + c, o);
        for (std::size_t ky = 0; ky < k; ++ky) {
          for (std::size_t kx = 0; kx < k; ++kx) {
            const T* tap = corner + (ky * w + kx) * c;
            for (std::size_t ch = 0; ch < c; ++ch) {
              o[ch] = std::max(o[ch], tap[ch]);
            }
          }
        }
      }
    }
  }
}

/// Integer average pool over channels-last code maps, from an
/// unbordered map into `out`; each window mean is requantized back onto
/// the grid with mean_code.
template <typename T>
void pool_avg_codes(const T* src, T* dst, const MapLayout& out,
                    std::size_t h, std::size_t w, std::size_t k,
                    std::size_t s) {
  const std::size_t c = out.c;
  const auto cnt = static_cast<std::int64_t>(k * k);
  for (std::size_t i = 0; i < out.n; ++i) {
    for (std::size_t oy = 0; oy < out.h; ++oy) {
      for (std::size_t ox = 0; ox < out.w; ++ox) {
        T* o = dst + out.at(i, oy, ox);
        const T* corner = src + ((i * h + oy * s) * w + ox * s) * c;
        for (std::size_t ch = 0; ch < c; ++ch) {
          std::int64_t sum = 0;
          for (std::size_t ky = 0; ky < k; ++ky) {
            for (std::size_t kx = 0; kx < k; ++kx) {
              sum += corner[(ky * w + kx) * c + ch];
            }
          }
          o[ch] = static_cast<T>(mean_code(sum, cnt));
        }
      }
    }
  }
}

/// Integer global average pool: channels-last (n, hw, c) codes → (n, c).
template <typename T>
void gap_codes(const T* src, T* dst, std::size_t n, std::size_t c,
               std::size_t hw) {
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t ch = 0; ch < c; ++ch) {
      std::int64_t sum = 0;
      for (std::size_t j = 0; j < hw; ++j) sum += src[(i * hw + j) * c + ch];
      dst[i * c + ch] =
          static_cast<T>(mean_code(sum, static_cast<std::int64_t>(hw)));
    }
  }
}

/// The activation codes flowing between layers: at most one engaged
/// lease of the backend's code type (leases have deleted
/// move-assignment, so the store re-emplaces instead of assigning).
/// Empty once an unquantized producer has left the grid.
template <typename Lease>
class CodeStore {
 public:
  bool engaged() const { return lease_.has_value(); }
  void adopt(Lease lease) { lease_.emplace(std::move(lease)); }
  void reset() { lease_.reset(); }
  /// Call `f` with the engaged code pointer.
  template <typename F>
  void visit(F&& f) const {
    if (lease_) f(lease_->data());
  }
  /// Replace the codes by `f(src, dst)` written into a fresh map of
  /// layout `out` (pooling keeps the grid).
  template <typename F>
  void map(const MapLayout& out, Workspace& ws, F&& f) {
    if (!lease_) return;
    Lease next = new_map<Lease>(out, ws);
    f(std::as_const(*lease_).data(), next.data());
    lease_.emplace(std::move(next));  // the old codes go back to the pool
  }

 private:
  std::optional<Lease> lease_;
};

// ---- MAC backends ------------------------------------------------------------
//
// The layer walk below is written once and instantiated over two MAC
// backends (policy structs).  Each names the lease its codes travel in,
// whether its maps carry their consumer conv's zero border, and runs one
// conv/linear layer of geometry `g` (a linear layer is the 1×1 kernel
// over a 1×1 map of in_features channels) over `n` images from
// channels-last codes `src` into channels-last `out`, bordered by
// `out_pad`: the next layer's codes through the fused requant epilogue
// when `out` is integer, the float epilogue when it is float.

/// The serving datapath: u8 codes in bordered maps.  Each layer is one
/// `IgemmOp` whose kernel reads the patches in place from `src` against
/// the layer's packed weight panel, the whole batch in one call.
struct IgemmMac {
  using Lease = Workspace::ByteLease;
  static constexpr bool kBordered = true;

  template <typename TOut>
  static void run(const IntLayerPlan& plan, const ConvGeometry& g,
                  std::size_t n, const std::uint8_t* src, TOut* out,
                  std::size_t out_pad, const ExecContext& ctx) {
    IgemmOp op;
    op.geometry = g;
    op.batch = n;
    op.panel = &plan.panel;
    op.x = src;
    op.out_pad = out_pad;
    op.x_bound = plan.in_code_bound;
    if constexpr (std::is_same_v<TOut, float>) {
      op.c = out;
      op.epilogue = {plan.channel_scale.data(), plan.bias.data()};
    } else {
      op.out8 = out;
      op.requant = plan.requant.data();
      op.requant_qmax = plan.out_qmax;
    }
    igemm_run(op, ctx);
  }
};

/// The specification oracle: a direct convolution over exact int32
/// channels-last codes in unbordered maps, reading `weight_codes` in
/// their serialized (oc, c, ky, kx) order, with unconditional int64
/// accumulation, padding taps skipped, and `requant_apply` per output —
/// no border, panel permutation, packing, narrowing or kernel selection,
/// so it checks all of those in the serving backend independently.
struct ReferenceMac {
  using Lease = Workspace::IntLease;
  static constexpr bool kBordered = false;  // so out_pad is always 0

  template <typename TOut>
  static void run(const IntLayerPlan& plan, const ConvGeometry& g,
                  std::size_t n, const std::int32_t* src, TOut* out,
                  std::size_t /*out_pad*/, const ExecContext& ctx) {
    const std::size_t oh = g.out_h(), ow = g.out_w();
    const std::size_t c = g.in_channels, k = g.kernel;
    const std::size_t outs = plan.kind == IntLayerPlan::Kind::kConv
                                 ? plan.out_channels
                                 : plan.out_features;
    const auto h = static_cast<long>(g.in_h), w = static_cast<long>(g.in_w);
    // Integer MACs are exact, so any partition over the disjoint output
    // pixels is trivially deterministic.
    parallel_for(ctx, n * oh * ow, 4, [&](std::size_t r0, std::size_t r1) {
      for (std::size_t r = r0; r < r1; ++r) {
        const std::size_t img = r / (oh * ow);
        const std::size_t oy = (r / ow) % oh, ox = r % ow;
        for (std::size_t oc = 0; oc < outs; ++oc) {
          std::int64_t acc = 0;  // the integer MAC datapath
          for (std::size_t ch = 0; ch < c; ++ch) {
            for (std::size_t ky = 0; ky < k; ++ky) {
              const long iy = static_cast<long>(oy * g.stride + ky) -
                              static_cast<long>(g.pad);
              if (iy < 0 || iy >= h) continue;
              for (std::size_t kx = 0; kx < k; ++kx) {
                const long ix = static_cast<long>(ox * g.stride + kx) -
                                static_cast<long>(g.pad);
                if (ix < 0 || ix >= w) continue;
                const std::int64_t code =
                    src[((img * g.in_h + static_cast<std::size_t>(iy)) *
                             g.in_w +
                         static_cast<std::size_t>(ix)) *
                            c +
                        ch];
                acc += static_cast<std::int64_t>(
                           plan.weight_codes[((oc * c + ch) * k + ky) * k +
                                             kx]) *
                       code;
              }
            }
          }
          if constexpr (std::is_same_v<TOut, float>) {
            out[r * outs + oc] =
                static_cast<float>(acc) * plan.channel_scale[oc] +
                plan.bias[oc];
          } else {
            out[r * outs + oc] =
                requant_apply(acc, plan.requant[oc], plan.out_qmax);
          }
        }
      }
    });
  }
};

/// The geometry a conv/linear layer runs at for a (logical NCHW) input
/// `shape`: a linear layer is the 1×1 kernel over a 1×1 map.
ConvGeometry layer_geometry(const IntLayerPlan& plan, const Shape& shape) {
  if (plan.kind == IntLayerPlan::Kind::kConv) {
    return ConvGeometry{.in_channels = plan.in_channels,
                        .in_h = shape[2],
                        .in_w = shape[3],
                        .kernel = plan.kernel,
                        .stride = plan.stride,
                        .pad = plan.pad};
  }
  CCQ_CHECK(shape.size() == 2 && shape[1] == plan.in_features,
            "linear input mismatch in integer engine");
  return ConvGeometry{.in_channels = plan.in_features, .in_h = 1, .in_w = 1};
}

/// The one layer walk behind forward and forward_reference.  The input
/// is snapped onto its 8-bit grid into channels-last codes; codes then
/// flow through every layer over backend `Mac` and are decoded once at
/// the edge, back in NCHW order.  Every producer — the
/// input snap, a fused epilogue, an unfused layer's re-snap, a pool —
/// writes its map with the border its consumer needs (on a bordered
/// backend, the pad of a conv that follows; none otherwise).  An unfused
/// conv/linear runs the float epilogue: with a quantized activation
/// (make_requant refused the layer) its output snaps back into codes,
/// without one it is the result — finalize_plans lets only flattens
/// follow an unquantized producer.
template <typename Mac>
Tensor walk(const std::vector<IntLayerPlan>& plans, const Tensor& x,
            Workspace& ws, const ExecContext& ctx) {
  CCQ_CHECK(x.rank() == 4, "integer engine expects NCHW input");
  using Lease = typename Mac::Lease;
  // The border of the map that feeds layer i.
  const auto border = [&](std::size_t i) -> std::size_t {
    return Mac::kBordered && i < plans.size() &&
                   plans[i].kind == IntLayerPlan::Kind::kConv
               ? plans[i].pad
               : 0;
  };
  CodeStore<Lease> codes;
  Tensor act;
  Shape shape = x.shape();  // logical NCHW; spatial codes are NHWC
  float scale = kInputScale;
  {
    // Standard 8-bit input quantization.
    telemetry::ScopedTimer timer(telemetry::Timer::kHwRequant);
    const MapLayout out = map_layout(shape, border(0));
    Lease lease = new_map<Lease>(out, ws);
    snap_input(x, scale, out, lease.data());
    codes.adopt(std::move(lease));
  }

  for (std::size_t i = 0; i < plans.size(); ++i) {
    const IntLayerPlan& plan = plans[i];
    switch (plan.kind) {
      case IntLayerPlan::Kind::kConv:
      case IntLayerPlan::Kind::kLinear: {
        const std::size_t n = shape[0];
        const ConvGeometry g = layer_geometry(plan, shape);
        const Shape out_shape =
            plan.kind == IntLayerPlan::Kind::kConv
                ? Shape{n, plan.out_channels, g.out_h(), g.out_w()}
                : Shape{n, plan.out_features};
        if (plan.requant_fused) {
          // The epilogue writes the next layer's codes directly, border
          // included; no float tensor is materialised at the boundary.
          const MapLayout out = map_layout(out_shape, border(i + 1));
          Lease next = new_map<Lease>(out, ws);
          codes.visit([&](const auto* src) {
            Mac::run(plan, g, n, src, next.data(), out.pad, ctx);
          });
          codes.adopt(std::move(next));
          scale = act_scale(plan);
        } else {
          Tensor out = ws.tensor_uninit(out_shape);  // channels-last
          codes.visit([&](const auto* src) {
            Mac::run(plan, g, n, src, out.data().data(), 0, ctx);
          });
          codes.reset();
          apply_act(out, plan);
          if (plan.has_act && plan.act_bits < 16) {
            // Exact re-entry: apply_act put every value on the grid.
            scale = act_scale(plan);
            const auto qmax = static_cast<std::int32_t>(
                (std::int32_t{1} << plan.act_bits) - 1);
            telemetry::ScopedTimer timer(telemetry::Timer::kHwRequant);
            const MapLayout layout = map_layout(out_shape, border(i + 1));
            Lease lease = new_map<Lease>(layout, ws);
            snap_codes(out, scale, qmax, layout, lease.data());
            codes.adopt(std::move(lease));
            ws.recycle(std::move(out));
          } else if (out_shape.size() == 4) {
            // The result leaves the grid spatially: back to NCHW now,
            // since only flattens may follow.
            act = ws.tensor_uninit(out_shape);
            to_nchw(out.data().data(), act.data().data(), n, out_shape[1],
                    out_shape[2] * out_shape[3], [](float v) { return v; });
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
        const MapLayout out = map_layout(out_shape, border(i + 1));
        if (plan.kind == IntLayerPlan::Kind::kAvgPool) {
          telemetry::ScopedTimer timer(telemetry::Timer::kHwRequant);
          codes.map(out, ws, [&](const auto* src, auto* dst) {
            pool_avg_codes(src, dst, out, h, w, k, s);
          });
        } else {
          codes.map(out, ws, [&](const auto* src, auto* dst) {
            pool_max_codes(src, dst, out, h, w, k, s);
          });
        }
        shape = out_shape;
        break;
      }
      case IntLayerPlan::Kind::kGlobalAvgPool: {
        const std::size_t n = shape[0], c = shape[1];
        const std::size_t hw = shape[2] * shape[3];
        telemetry::ScopedTimer timer(telemetry::Timer::kHwRequant);
        codes.map(map_layout({n, c}, 0), ws,
                  [&](const auto* src, auto* dst) {
          gap_codes(src, dst, n, c, hw);
        });
        shape = {n, c};
        break;
      }
      case IntLayerPlan::Kind::kFlatten: {
        // Features follow NCHW order, as the linear weights were
        // trained: a spatial code map with more than one channel and
        // more than one pixel is reordered; otherwise the layouts agree
        // and the flatten is shape-only.
        const Shape flat = {shape[0], shape_numel(shape) / shape[0]};
        if (codes.engaged() && shape.size() == 4 && shape[1] > 1 &&
            shape[2] * shape[3] > 1) {
          const std::size_t n = shape[0], c = shape[1];
          const std::size_t hw = shape[2] * shape[3];
          codes.map(map_layout(flat, 0), ws,
                    [&](const auto* src, auto* dst) {
            to_nchw(src, dst, n, c, hw, [](auto v) { return v; });
          });
        }
        shape = flat;
        if (!codes.engaged()) act.resize(shape);
        break;
      }
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
  return walk<IgemmMac>(plans_, x, ws, ctx);
}

Tensor IntegerNetwork::forward_reference(const Tensor& x) const {
  return forward_reference(x, Workspace::scratch(), ExecContext::global());
}

Tensor IntegerNetwork::forward_reference(const Tensor& x, Workspace& ws,
                                         const ExecContext& ctx) const {
  return walk<ReferenceMac>(plans_, x, ws, ctx);
}

std::size_t IntegerNetwork::macs_per_sample(std::size_t h,
                                            std::size_t w) const {
  std::size_t total = 0;
  std::size_t cur_h = h, cur_w = w;
  for (const auto& plan : plans_) {
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
  for (const auto& plan : plans_) {
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
