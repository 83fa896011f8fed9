// Module graph for the NN substrate.
//
// The paper trains ResNets with quantization-aware training.  We model a
// network as a tree of `Module`s (containers own children by unique_ptr)
// with explicit `forward` / `backward` passes that cache whatever the
// backward pass needs.  There is no general autograd tape: the layer set
// the paper needs (conv / linear / BN / activations / pooling / residual
// add) has well-known closed-form backward rules, and an explicit graph
// keeps memory behaviour predictable on the single-core target.
//
// Quantization plugs in through `QuantizerHook`: a layer that owns
// weights consults its hook (if any) to obtain the quantized weights used
// in forward/backward, and routes the weight gradient back through the
// hook's straight-through estimator.  This is exactly the paper's
// "policy-agnostic" seam: DoReFa/WRPN/PACT/… are hooks, and the CCQ
// controller changes a layer's precision by re-configuring its hook.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ccq/common/exec.hpp"
#include "ccq/common/workspace.hpp"
#include "ccq/tensor/tensor.hpp"

namespace ccq::nn {

/// A learnable tensor with its gradient accumulator.
struct Parameter {
  std::string name;
  Tensor value;
  Tensor grad;
  /// Multiplier on the optimizer's weight decay (0 exempts BN scales and
  /// PACT clip values, following common practice).
  float weight_decay_scale = 1.0f;
  /// Multiplier on the optimizer's learning rate.
  float lr_scale = 1.0f;

  Parameter() = default;
  Parameter(std::string n, Tensor v)
      : name(std::move(n)), value(std::move(v)), grad(value.shape()) {}

  void zero_grad() { grad.fill(0.0f); }
  std::size_t numel() const { return value.numel(); }
};

/// Weight-quantization seam (implemented by ccq::quant policies).
class QuantizerHook {
 public:
  virtual ~QuantizerHook() = default;

  /// Quantize latent weights `w` for use in this forward pass.  May keep
  /// state for the backward mapping (called once per forward).  The
  /// default funnels through quantize_into; hooks override at least one
  /// of the two.
  virtual Tensor quantize(const Tensor& w) {
    Tensor q(w.shape());
    quantize_into(w, q);
    return q;
  }

  /// Write-into-destination variant: `dst` is resized to w's shape,
  /// reusing its capacity, so a layer's cached `qweight_` stops
  /// reallocating once warm.  This is the primary implementation point
  /// for the repo's hooks.
  virtual void quantize_into(const Tensor& w, Tensor& dst) {
    dst = quantize(w);
  }

  /// Map dL/d(quantized w) back to dL/d(latent w).  The default is the
  /// plain straight-through estimator (identity).
  virtual Tensor backward(const Tensor& w, Tensor grad_q) {
    (void)w;
    return grad_q;
  }

  /// Current weight bit width (32 means "not quantized").
  virtual int bits() const = 0;

  /// Uniform grid spacing of the most recent quantize() output, or 0
  /// when unknown / non-uniform (e.g. per-channel grids).  The integer
  /// engine consumes this to encode weight codes without re-inferring
  /// the step from the tensor's distinct values; hooks that quantize
  /// onto a single uniform grid should override it.
  virtual float grid_step() const { return 0.0f; }

  /// Hooks with learnable state (e.g. LSQ step size) expose it here so
  /// the owning layer registers it with the optimizer.
  virtual void collect_parameters(std::vector<Parameter*>& out) { (void)out; }
};

/// Base class for all network components.
class Module {
 public:
  Module() = default;
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;
  virtual ~Module() = default;

  /// Compute outputs, drawing any result/scratch storage from `ws`; must
  /// cache anything backward needs (layers skip those caches when
  /// !training(), the eval fast path).  Callers may recycle the returned
  /// tensor into `ws` once consumed.
  virtual Tensor forward(const Tensor& x, Workspace& ws) = 0;

  /// Given dL/d(output), return dL/d(input) (storage drawn from `ws`)
  /// and accumulate parameter gradients.  Must be called after the
  /// matching forward in training mode.  A module without parameters
  /// has no other backward side effect: its backward only forms
  /// dL/d(input), so a caller that drops that gradient may skip it.
  virtual Tensor backward(const Tensor& grad_out, Workspace& ws) = 0;

  /// Accumulate exactly the parameter gradients `backward` would, when
  /// the caller has no use for dL/d(input) — the first layers of a
  /// network, whose input is the image.  The default runs backward and
  /// recycles its result; a layer that can skip forming dL/d(input)
  /// overrides it (Conv2d), and Sequential skips the backward of its
  /// parameterless prefix altogether.
  virtual void backward_params(const Tensor& grad_out, Workspace& ws) {
    ws.recycle(backward(grad_out, ws));
  }

  /// Append this module's own parameters (containers recurse).
  virtual void collect_parameters(std::vector<Parameter*>& out) { (void)out; }

  /// Convenience: gather all parameters in the subtree.
  std::vector<Parameter*> parameters() {
    std::vector<Parameter*> out;
    collect_parameters(out);
    return out;
  }

  /// Named non-learnable state that checkpoints must persist (BatchNorm
  /// running statistics).  Containers recurse.
  using NamedBuffer = std::pair<std::string, Tensor*>;
  virtual void collect_buffers(std::vector<NamedBuffer>& out) { (void)out; }

  std::vector<NamedBuffer> buffers() {
    std::vector<NamedBuffer> out;
    collect_buffers(out);
    return out;
  }

  /// Total learnable scalar count in the subtree.
  std::size_t parameter_count() {
    std::size_t n = 0;
    for (const auto* p : parameters()) n += p->numel();
    return n;
  }

  /// Switch train/eval behaviour (BN statistics, etc.). Containers recurse.
  virtual void set_training(bool training) { training_ = training; }
  bool training() const { return training_; }

  /// Pin the execution context the subtree's compute-heavy layers hand
  /// to their kernels.  Pass nullptr to fall back to the process-wide
  /// default.  The context must outlive the module.
  void set_exec_context(const ExecContext* ctx) {
    visit([ctx](Module& m) { m.exec_ = ctx; });
  }

  /// Context used by this module's kernel calls.
  const ExecContext& exec() const {
    return exec_ != nullptr ? *exec_ : ExecContext::global();
  }

  /// Short type tag for diagnostics ("Conv2d", "BatchNorm2d", …).
  virtual std::string type_name() const = 0;

  /// Depth-first visit of this module and (for containers) its subtree.
  /// Used by the quantization registry to discover quantizable layers.
  virtual void visit(const std::function<void(Module&)>& fn) { fn(*this); }

 protected:
  bool training_ = true;
  const ExecContext* exec_ = nullptr;
};

using ModulePtr = std::unique_ptr<Module>;

}  // namespace ccq::nn
