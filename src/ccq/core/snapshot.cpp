#include "ccq/core/snapshot.hpp"

#include <filesystem>

#include "ccq/tensor/serialize.hpp"

namespace ccq::core {

namespace {

// Reserved name for the precision-state record inside the tensor map.
// Two entries per layer: [bits, frozen].
constexpr const char* kStateKey = "__ccq_precision_state__";

}  // namespace

void save_snapshot(models::QuantModel& model, const std::string& path) {
  TensorMap tensors;
  for (const auto* p : model.parameters()) {
    CCQ_CHECK(!tensors.count(p->name), "duplicate parameter " + p->name);
    tensors.emplace(p->name, p->value);
  }
  for (const auto& [name, tensor] : model.net().buffers()) {
    CCQ_CHECK(!tensors.count(name), "duplicate buffer " + name);
    tensors.emplace(name, *tensor);
  }
  const quant::LayerRegistry& registry = model.registry();
  Tensor state({registry.size(), 2});
  for (std::size_t i = 0; i < registry.size(); ++i) {
    state(i, 0) = static_cast<float>(registry.bits_of(i));
    state(i, 1) = registry.unit(i).frozen ? 1.0f : 0.0f;
  }
  tensors.emplace(kStateKey, std::move(state));
  save_tensors(path, tensors);
}

bool load_snapshot(models::QuantModel& model, const std::string& path) {
  if (!std::filesystem::exists(path)) return false;
  const TensorMap tensors = load_tensors(path);
  for (auto* p : model.parameters()) {
    const auto it = tensors.find(p->name);
    CCQ_CHECK(it != tensors.end(),
              "snapshot " + path + ": missing parameter '" + p->name + "'");
    CCQ_CHECK(it->second.shape() == p->value.shape(),
              "snapshot " + path + ": parameter '" + p->name + "' expects " +
                  shape_str(p->value.shape()) + ", found " +
                  shape_str(it->second.shape()));
    p->value = it->second;
  }
  for (auto& [name, tensor] : model.net().buffers()) {
    const auto it = tensors.find(name);
    CCQ_CHECK(it != tensors.end(),
              "snapshot " + path + ": missing buffer '" + name + "'");
    CCQ_CHECK(it->second.shape() == tensor->shape(),
              "snapshot " + path + ": buffer '" + name + "' expects " +
                  shape_str(tensor->shape()) + ", found " +
                  shape_str(it->second.shape()));
    *tensor = it->second;
  }
  const auto state_it = tensors.find(kStateKey);
  CCQ_CHECK(state_it != tensors.end(),
            "snapshot " + path + ": missing precision state record");
  const Tensor& state = state_it->second;
  quant::LayerRegistry& registry = model.registry();
  CCQ_CHECK(state.rank() == 2 && state.dim(0) == registry.size(),
            "snapshot " + path + ": precision state covers " +
                std::to_string(state.rank() == 2 ? state.dim(0) : 0) +
                " layers, this model has " + std::to_string(registry.size()));

  const auto& ladder = registry.ladder();
  for (std::size_t i = 0; i < registry.size(); ++i) {
    const int bits = static_cast<int>(state(i, 0));
    const bool frozen = state(i, 1) != 0.0f;
    if (frozen) {
      registry.force_bits(i, bits);
      continue;
    }
    CCQ_CHECK(!registry.unit(i).frozen,
              "snapshot un-freezes a frozen layer: " + registry.unit(i).name);
    if (bits >= 32) {
      // Full precision: reset hooks directly without a ladder position.
      registry.unit(i).weight_hook->set_bits(32);
      if (registry.unit(i).act != nullptr) {
        registry.unit(i).act->set_bits(32);
      }
      registry.unit(i).ladder_pos = 0;
      continue;
    }
    bool placed = false;
    for (std::size_t pos = 0; pos < ladder.size(); ++pos) {
      if (ladder.bits_at(pos) == bits) {
        registry.set_ladder_pos(i, pos);
        placed = true;
        break;
      }
    }
    CCQ_CHECK(placed, "snapshot " + path + ": layer '" +
                          registry.unit(i).name + "' stores " +
                          std::to_string(bits) +
                          " bits, not on this model's ladder (" +
                          ladder.str() + ")");
  }
  return true;
}

}  // namespace ccq::core
