// Container modules: Sequential chains and residual blocks.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "ccq/nn/module.hpp"

namespace ccq::nn {

/// Chain of modules executed in order.
class Sequential : public Module {
 public:
  Sequential() = default;

  /// Construct and append a child; returns a reference to it.
  template <typename T, typename... Args>
  T& add(Args&&... args) {
    auto child = std::make_unique<T>(std::forward<Args>(args)...);
    T& ref = *child;
    children_.push_back(std::move(child));
    return ref;
  }

  /// Append an already-constructed module.
  Module& add_module(ModulePtr m);

  Tensor forward(const Tensor& x, Workspace& ws) override;
  Tensor backward(const Tensor& grad_out, Workspace& ws) override;
  /// Backward through the children after the first one with parameters,
  /// then that child's backward_params; the parameterless children
  /// before it are skipped, since their backward has no side effect.
  void backward_params(const Tensor& grad_out, Workspace& ws) override;
  void collect_parameters(std::vector<Parameter*>& out) override;
  void collect_buffers(std::vector<NamedBuffer>& out) override;
  void set_training(bool training) override;
  std::string type_name() const override { return "Sequential"; }

  std::size_t size() const { return children_.size(); }
  Module& child(std::size_t i);
  bool empty() const { return children_.empty(); }

  void visit(const std::function<void(Module&)>& fn) override;

 private:
  std::vector<ModulePtr> children_;
};

/// Residual block: y = act(main(x) + shortcut(x)).
/// The shortcut may be empty (identity).  The post-add activation is a
/// separate child so quantized activations can be substituted.
class Residual : public Module {
 public:
  Residual(ModulePtr main, ModulePtr shortcut, ModulePtr activation);

  Tensor forward(const Tensor& x, Workspace& ws) override;
  Tensor backward(const Tensor& grad_out, Workspace& ws) override;
  void collect_parameters(std::vector<Parameter*>& out) override;
  void collect_buffers(std::vector<NamedBuffer>& out) override;
  void set_training(bool training) override;
  std::string type_name() const override { return "Residual"; }
  void visit(const std::function<void(Module&)>& fn) override;

  Module& main() { return *main_; }
  Module* shortcut() { return shortcut_.get(); }
  Module* activation() { return activation_.get(); }
  /// Replace the post-add activation (used when wiring quantized acts).
  void set_activation(ModulePtr act) { activation_ = std::move(act); }

 private:
  ModulePtr main_;
  ModulePtr shortcut_;    ///< nullptr = identity
  ModulePtr activation_;  ///< nullptr = linear (no activation)
};

}  // namespace ccq::nn
