// Quantized-model snapshots: parameters plus the per-layer precision
// state, so a CCQ run (or its result) can be persisted and resumed.
#pragma once

#include <string>

#include "ccq/models/model.hpp"

namespace ccq::core {

/// Save every parameter and each registered layer's precision (ladder
/// position / frozen bits) to `path`.
void save_snapshot(models::QuantModel& model, const std::string& path);

/// Restore a snapshot into a structurally identical model (same builder,
/// same ladder).  Returns false when the file does not exist; throws on
/// shape/layer-count mismatches.  Tensors are looked up by name, so a
/// snapshot carrying extra records (older builds stored the controller's
/// pick history as `__ccq_rung_trail__`) still loads.
bool load_snapshot(models::QuantModel& model, const std::string& path);

}  // namespace ccq::core
