// Quantizable model bundle: network + layer registry + metadata.
#pragma once

#include <memory>
#include <string>

#include "ccq/nn/container.hpp"
#include "ccq/quant/policy.hpp"
#include "ccq/quant/registry.hpp"

namespace ccq::models {

/// Architecture knobs shared by all builders.  `width_multiplier` scales
/// every channel count (DESIGN.md §2: the reproduction keeps the paper's
/// topologies but shrinks width to fit the single-core CPU budget).
struct ModelConfig {
  std::size_t num_classes = 10;
  std::size_t in_channels = 3;
  std::size_t image_size = 32;
  float width_multiplier = 1.0f;
  std::uint64_t seed = 7;
  /// When true, all layers start at 32-bit (for fp32 baseline training);
  /// the CCQ controller later drops them onto the ladder.
  bool start_at_fp = true;
};

/// A network plus the registry the CCQ controller manipulates.  The
/// registry's units reference modules owned by `net`, so the bundle is
/// move-only and `net` must outlive any registry use.
class QuantModel {
 public:
  QuantModel(std::string name, ModelConfig config,
             std::unique_ptr<nn::Sequential> net,
             std::unique_ptr<quant::LayerRegistry> registry)
      : name_(std::move(name)),
        config_(config),
        net_(std::move(net)),
        registry_(std::move(registry)) {}

  const std::string& name() const { return name_; }
  const ModelConfig& config() const { return config_; }
  nn::Sequential& net() { return *net_; }
  quant::LayerRegistry& registry() { return *registry_; }
  const quant::LayerRegistry& registry() const { return *registry_; }

  Tensor forward(const Tensor& x, Workspace& ws) {
    return net_->forward(x, ws);
  }
  /// Accumulate every parameter gradient of the loss gradient `grad`.
  /// No caller needs dL/d(image), so the first layers skip forming it
  /// (Module::backward_params); `net().backward` still returns it.
  void backward(const Tensor& grad, Workspace& ws) {
    net_->backward_params(grad, ws);
  }
  std::vector<nn::Parameter*> parameters() { return net_->parameters(); }
  void set_training(bool training) { net_->set_training(training); }

 private:
  std::string name_;
  ModelConfig config_;
  std::unique_ptr<nn::Sequential> net_;
  std::unique_ptr<quant::LayerRegistry> registry_;
};

}  // namespace ccq::models
