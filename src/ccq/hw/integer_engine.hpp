// Integer inference engine: the deployment view of a quantized model.
//
// During training this library *simulates* quantization in float.  A
// real accelerator (the one the Fig 5 power model prices) instead runs
// integer MACs over weight/activation codes and rescales per output
// channel.  This engine builds that datapath from a trained QuantModel:
//
//   * BatchNorm is folded into the preceding conv/linear (per-channel
//     scale γ/σ and bias β − γμ/σ, using the running statistics);
//   * quantized weights are stored as k-bit integer codes plus a
//     per-layer scale (per-channel after folding);
//   * 8 bits is the ceiling: weight grids of at most 8 bits, quantized
//     activation grids of 1–8 bits, and int32 sums.  The paper starts
//     every layer at 8 bits and only lowers it, so finalize rejects
//     anything wider — and any layer too deep for int32 — with a
//     ccq::Error naming the layer, instead of carrying a wider datapath;
//   * activations flow layer-to-layer as u8 integer *codes* with no
//     intermediate float tensor, stored channels-last — (N, H, W, C) —
//     while the map is spatial;
//   * every convolution / fully-connected inner product runs through the
//     igemm kernel-dispatch API (`ccq::IgemmOp` + `igemm_run`) as one
//     product of activation dot rows against a packed weight panel.  At
//     plan-finalize time each layer picks a named kernel variant from
//     the registry (vec16 / vec-packed, overridable via
//     `$CCQ_IGEMM_KERNEL`) based on its static code bounds and packs its
//     weight codes into that kernel's panel layout — a conv's in its
//     (ky, kx, c) patch order.  At run time each conv lowers its codes
//     once (`im2row`) straight into the kernel's dot rows, one row per
//     output pixel of the whole batch; a linear layer is the
//     1×1-kernel-over-a-1×1-map case of the same lowering;
//   * each layer's BN fold and the next grid's quantization are folded
//     into per-channel fixed-point requant parameters (hw::make_requant)
//     and fused into the igemm epilogue, which writes the next layer's
//     channels-last codes directly.  Only the last weighted layer (the
//     classifier head) may leave the grid: it keeps the float epilogue
//     and its output is the result.  There is no float-activation
//     datapath, so finalize rejects any layer but a flatten after an
//     unquantized producer;
//   * the input stays NCHW float and outputs are NCHW: a flatten of a
//     spatial map reorders its codes into NCHW feature order (so linear
//     weights trained on NCHW features stay valid), and so does the
//     final decode of a net that ends spatially;
//   * `forward_reference` is a direct naive int64 convolution over the
//     same channels-last codes, reading the weight codes in their
//     serialized order — the golden datapath every kernel, the lowering
//     and the panel permutation are differentially tested against.
//
// Tests assert parity with the float-simulated forward pass — the
// property that makes training-time accuracy numbers meaningful for the
// deployed network — within 0.05 logits at their 8×8 geometry.  One
// known train/deploy gap remains: the engine re-snaps each global-
// average-pool mean onto the activation grid and the float
// GlobalAvgPool does not, which only cancels when GAP sees a 1×1 map
// (ROADMAP.md tracks it).
//
// Scope: sequential topologies (conv/linear + BN + quantized activation,
// pooling, flatten, global-average-pool).  Residual graphs still run
// through the float simulation path.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ccq/common/exec.hpp"
#include "ccq/common/workspace.hpp"
#include "ccq/models/model.hpp"
#include "ccq/tensor/igemm.hpp"
#include "ccq/tensor/im2col.hpp"

namespace ccq::hw {

/// One compiled layer of the integer network.
struct IntLayerPlan {
  enum class Kind { kConv, kLinear, kMaxPool, kAvgPool, kGlobalAvgPool,
                    kFlatten };
  Kind kind = Kind::kConv;

  /// Registry name for conv/linear layers, "<type>@<seq-index>" for the
  /// rest — artifact layer tables and load errors refer to layers by it.
  std::string name;

  // Conv/linear payload -------------------------------------------------
  std::vector<std::int32_t> weight_codes;  ///< k-bit signed codes
  int weight_bits = 32;
  /// Per-output-channel effective scale: weight_scale · (γ/σ) folded.
  std::vector<float> channel_scale;
  /// Folded bias per output channel (β − γμ/σ plus original bias).
  std::vector<float> bias;
  std::size_t in_channels = 0, out_channels = 0;
  std::size_t kernel = 1, stride = 1, pad = 0;
  std::size_t in_features = 0, out_features = 0;

  // igemm payload (derived — built by finalize, never serialized) --------
  /// Kernel variant selected for this layer (igemm_select_kernel over
  /// the layer's static bounds, seeded by `$CCQ_IGEMM_KERNEL`).
  IgemmKernel igemm_kernel = IgemmKernel::kVec16;
  /// `weight_codes` packed in `igemm_kernel`'s panel layout (see
  /// igemm_pack), one panel row per output channel; a conv's rows are
  /// permuted to the (ky, kx, c) order of its channels-last patches.
  IgemmPanel panel;
  std::int32_t max_abs_code = 0;   ///< max |weight code|
  /// Static bound on |incoming activation codes| (255 for the 8-bit
  /// input, (2^b − 1) after a b-bit activation grid); finalize proves
  /// max_abs_code · in_code_bound · depth fits int32 (igemm_fits_int32).
  std::int64_t in_code_bound = 0;

  // Activation re-quantization ------------------------------------------
  bool has_act = false;
  int act_bits = 32;
  float act_clip = 0.0f;  ///< PACT α or fixed clip

  // Fused fixed-point requantization ------------------------------------
  /// Per-output-channel requant parameters folding this layer's
  /// channel_scale/bias *and* its activation quantization into the igemm
  /// epilogue, so the kernel writes the next layer's codes directly.
  /// Built by finalize (hw::make_requant against the layer's static
  /// accumulator bound) when the layer has a quantized activation;
  /// serialized in CCQA artifacts so serving replays the exporter's
  /// exact parameters.  Empty ⇒ unfused: the layer keeps the float
  /// epilogue (+ apply_act), and a quantized activation snaps its output
  /// back into codes.
  std::vector<Requant> requant;
  /// True when `requant` is populated and the layer's output flows as
  /// u8 codes.
  bool requant_fused = false;
  /// Output code ceiling for the fused path: 2^act_bits − 1.
  std::int32_t out_qmax = 0;
  /// Static bound on |accumulator| the requant parameters were built
  /// for: max_abs_code · in_code_bound · depth.
  std::int64_t acc_bound = 0;

  // Pool payload ---------------------------------------------------------
  std::size_t pool_kernel = 2, pool_stride = 2;
};

/// Provenance of one serving rung (operating point) of a multi-point
/// network: which controller trail step produced its configuration and
/// the validation accuracy the controller recorded there.  Rung 0 is the
/// highest-precision (most accurate) point; the last rung is the final,
/// lowest-precision configuration of the descent.
struct RungInfo {
  std::int32_t trail_step = -1;  ///< −1 = the final configuration
  float val_acc = 0.0f;          ///< 0 when unknown
};

/// Encode a grid-valued tensor as doubled integer codes: q = (step/2)·c.
/// Doubling covers both zero-centred grids (codes even) and half-offset
/// grids like DoReFa's (codes odd).  Throws ccq::Error naming `layer`
/// when any code falls outside the ±2^bits envelope a `bits`-bit grid
/// can produce — a silent std::lround narrowing here used to let a
/// mis-inferred step corrupt the whole compiled layer.
std::vector<std::int32_t> encode_doubled(const Tensor& q, float step,
                                         int bits, const std::string& layer);

/// Compiled integer network.
class IntegerNetwork {
 public:
  /// Compile a *sequential* quantized model (throws ccq::Error when the
  /// topology contains residual blocks or unsupported modules, when a
  /// layer other than a flatten follows one without a quantized
  /// activation grid, or when `finalize_plans` rejects a layer).  The
  /// model must be in eval state conceptually: BN running statistics are
  /// baked in.
  static IntegerNetwork compile(models::QuantModel& model);

  /// Rebuild a network from deserialised layer plans (ccq::serve packed
  /// artifacts).  Plans are taken as-is; shape consistency is the
  /// loader's responsibility.  Throws on an empty plan list, names the
  /// first layer other than a flatten that follows an unquantized
  /// producer, and names any layer `finalize_plans` rejects.
  static IntegerNetwork from_plans(std::vector<IntLayerPlan> plans);

  /// Build a multi-point network: one plan set per serving rung, all
  /// over the same layer sequence (same names, kinds and geometry —
  /// only precision-dependent fields may differ).  Each rung re-runs
  /// kernel selection, the accumulator proof and requant rederivation
  /// through `finalize_plans`, so every operating point serves through
  /// the kernels a fresh compile would pick and meets the same 8-bit
  /// ceiling.  `info` records each rung's
  /// provenance and must match `rungs` in length.  Throws on zero rungs,
  /// inconsistent layer sequences, or a length mismatch.
  static IntegerNetwork from_rungs(std::vector<std::vector<IntLayerPlan>> rungs,
                                   std::vector<RungInfo> info);

  /// Run inference over an (N, C, H, W) batch; returns (N, classes)
  /// logits.  All conv/linear arithmetic is integer, executed by
  /// `igemm_run` with each layer's selected kernel over its packed
  /// weight panel (bit-identical to `forward_reference` for every
  /// shape, bit width, kernel and thread count — the differential
  /// property the igemm test harness enforces).  The workspace overload recycles every
  /// intermediate activation through the pool; recycle the returned
  /// logits too and warm repeated inference performs no float- or
  /// int-storage allocations.  The context overload names the thread
  /// budget for the igemm kernels — serve workers pass their own context
  /// because the process-global pool does not support concurrent drivers.
  Tensor forward(const Tensor& x) const;
  Tensor forward(const Tensor& x, Workspace& ws) const;
  Tensor forward(const Tensor& x, Workspace& ws, const ExecContext& ctx) const;
  /// Run inference at serving rung `rung` (multi-point networks; the
  /// rung-less overloads serve rung 0, the highest-precision point).
  /// Every rung is bit-identical to `forward_reference` at the same
  /// rung.  Throws on an out-of-range rung.
  Tensor forward(const Tensor& x, Workspace& ws, const ExecContext& ctx,
                 std::size_t rung) const;

  /// Specification datapath: the same layer walk as `forward` over a
  /// reference MAC backend — exact int32 channels-last codes, a direct
  /// naive convolution with unconditional int64 accumulation that reads
  /// `weight_codes` in their serialized (oc, c, ky, kx) order and skips
  /// padding taps, and the *same* `requant_apply` on fused layers (the
  /// same float epilogue on unfused ones) — with no lowering, panel
  /// permutation, packing, narrowing or kernel selection.  Integer
  /// arithmetic is associative, so `forward` is bit-identical to this
  /// oracle for every kernel and thread count.  The
  /// walk's own glue (input snap, pooling, the NCHW reorders, decode) is
  /// shared, so tests check it against the float-simulated forward and
  /// recorded golden codes instead.  Not a serving path.
  Tensor forward_reference(const Tensor& x) const;
  Tensor forward_reference(const Tensor& x, Workspace& ws,
                           const ExecContext& ctx) const;
  Tensor forward_reference(const Tensor& x, Workspace& ws,
                           const ExecContext& ctx, std::size_t rung) const;

  std::size_t layer_count() const { return rungs_.front().size(); }
  const IntLayerPlan& plan(std::size_t i) const;

  /// Number of serving rungs (≥ 1; single-point networks have exactly 1).
  std::size_t rung_count() const { return rungs_.size(); }
  /// Layer plan `i` at serving rung `rung`.
  const IntLayerPlan& plan(std::size_t rung, std::size_t i) const;
  /// Provenance of rung `rung` (all-default for single-point networks).
  const RungInfo& rung_info(std::size_t rung) const;

  /// Total integer MAC operations for one sample of an h×w input (a
  /// pure function of the plans and the input size).
  std::size_t macs_per_sample(std::size_t h, std::size_t w) const;

  /// Validate one C×H×W sample geometry against the compiled plans
  /// without running inference: zero/overflowing dims, per-layer channel
  /// counts, conv/pool kernel bounds, and the flatten→linear feature
  /// contract.  Throws ccq::Error naming the first inconsistent layer.
  /// Serving admission calls this so an untrusted request is rejected
  /// before its dimensions can size any engine loop (or pin a model's
  /// batch shape).
  void check_input(std::size_t channels, std::size_t height,
                   std::size_t width) const;

 private:
  /// Validate every plan against the engine's 8-bit ceiling and build
  /// its derived igemm payload (kernel selection, packed panel, max
  /// |code|, requant parameters) — runs once in compile()/from_plans()/
  /// from_rungs(), per rung, so artifact loads ship ready-packed panels
  /// in the layout of the kernel that will execute them.  Throws a
  /// ccq::Error naming the layer and its numbers for a weight grid above
  /// 8 bits, a quantized activation grid outside 1–8 bits, or a conv /
  /// linear layer whose int32 proof fails (max |code| · incoming code
  /// bound · depth > INT32_MAX).  Reads `$CCQ_IGEMM_KERNEL` once for the
  /// whole network; throws its unknown-name error (listing available
  /// kernels) before any layer is packed.
  void finalize_plans();

  /// Plan sets, one per serving rung; invariant: non-empty, all rungs
  /// hold the same layer sequence (count / name / kind / geometry).
  /// Rung 0 is the highest-precision point.  Plans are immutable after
  /// finalize, so switching the served rung between batches is just an
  /// index change — nothing to synchronize.
  std::vector<std::vector<IntLayerPlan>> rungs_;
  std::vector<RungInfo> rung_info_;  ///< parallel to rungs_
};

}  // namespace ccq::hw
