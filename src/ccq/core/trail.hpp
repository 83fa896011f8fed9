// The rung trail: the ladder pick history of one CCQ descent.
//
// Every competitive step the controller commits moves exactly one layer
// one rung down its bit ladder.  The trail records which layer moved,
// where it landed, and the validation accuracy the controller measured
// after recovering from the step.  It is persisted inside the controller
// state checkpoint (core/controller, state v2), so a resumed run keeps
// appending to it.
#pragma once

#include <cstddef>
#include <vector>

namespace ccq::core {

/// One committed quantization step: registry layer `layer` moved to
/// ladder position `ladder_pos` (the position *after* the step), and the
/// run validated at `val_acc` once recovery fine-tuning finished.
struct TrailStep {
  std::size_t layer = 0;
  std::size_t ladder_pos = 0;
  float val_acc = 0.0f;
};

inline bool operator==(const TrailStep& a, const TrailStep& b) {
  return a.layer == b.layer && a.ladder_pos == b.ladder_pos &&
         a.val_acc == b.val_acc;
}

using RungTrail = std::vector<TrailStep>;

}  // namespace ccq::core
