// Dataset and batching abstractions.
//
// The paper evaluates on CIFAR10 and ImageNet, neither of which ships
// with this repo; DESIGN.md §2 documents the synthetic substitutes.  The
// abstractions here are dataset-agnostic: an in-memory labelled image
// store plus a shuffling mini-batch loader with optional train-time
// augmentation (pad-crop and horizontal flip, the paper's §IV.a setup).
#pragma once

#include <cstddef>
#include <vector>

#include "ccq/common/rng.hpp"
#include "ccq/tensor/tensor.hpp"

namespace ccq::data {

/// One mini-batch: NCHW images plus integer labels.
struct Batch {
  Tensor images;
  std::vector<int> labels;
  std::size_t size() const { return labels.size(); }
};

/// In-memory labelled image dataset (CHW float images in [0, 1]).
class Dataset {
 public:
  Dataset(std::size_t channels, std::size_t height, std::size_t width,
          std::size_t num_classes);

  void add(Tensor image, int label);
  std::size_t size() const { return labels_.size(); }
  std::size_t channels() const { return channels_; }
  std::size_t height() const { return height_; }
  std::size_t width() const { return width_; }
  std::size_t num_classes() const { return num_classes_; }

  const Tensor& image(std::size_t i) const;
  int label(std::size_t i) const;

  /// Assemble a batch from explicit indices (no augmentation).
  Batch gather(const std::vector<std::size_t>& indices) const;

  /// Capacity-reusing variant: `batch` is resized and overwritten, so a
  /// caller looping over index sets performs no steady-state allocations.
  void gather_into(const std::vector<std::size_t>& indices,
                   Batch& batch) const;

  /// The whole dataset as one batch (for small validation sets).
  Batch all() const;

  /// Split off the last `count` samples into a new dataset (train/val).
  Dataset take_tail(std::size_t count);

 private:
  std::size_t channels_, height_, width_, num_classes_;
  std::vector<Tensor> images_;
  std::vector<int> labels_;
};

/// Train-time augmentation configuration (paper §IV.a).
struct Augment {
  bool horizontal_flip = true;
  std::size_t pad_crop = 2;  ///< zero-pad margin before random crop; 0 = off
};

/// Shuffling mini-batch iterator with augmentation.
class DataLoader {
 public:
  DataLoader(const Dataset& dataset, std::size_t batch_size, Augment augment,
             Rng rng);

  /// Reshuffle and restart an epoch.
  void start_epoch();

  /// Fetch the next batch; returns false at epoch end.  The loader's
  /// RNG draws, in order: the epoch's shuffle (start_epoch), then per
  /// sample, in batch order, dy and dx when pad_crop > 0 (each uniform
  /// in [−pad_crop, pad_crop]) and a flip coin when horizontal_flip is
  /// set.  Each augmented image is written straight into its batch row:
  /// pixel (y, x) reads the source at (y + dy, x + dx) — zero where that
  /// falls outside the image — and a flip mirrors the shifted columns.
  /// Warm calls into the same `out` allocate no float storage.
  bool next(Batch& out);

  std::size_t batches_per_epoch() const;

  /// Shuffle-stream state (the order/cursor are rebuilt by
  /// `start_epoch`, so between epochs the RNG is the whole state).
  /// Exposed for controller save/restore.
  Rng::State rng_state() const { return rng_.state(); }
  void set_rng_state(const Rng::State& state) { rng_.set_state(state); }

 private:
  /// Augmentation decisions for one sample, drawn from the loader RNG in
  /// sample order *before* the (possibly parallel) batch assembly, so
  /// the RNG stream and the resulting batches are independent of the
  /// thread count.
  struct AugmentDraw {
    long dy = 0;
    long dx = 0;
    bool flip = false;
  };

  AugmentDraw draw_augment();

  const Dataset& dataset_;
  std::size_t batch_size_;
  Augment augment_;
  Rng rng_;
  std::vector<std::size_t> order_;
  std::size_t cursor_ = 0;
  std::vector<AugmentDraw> draws_;  ///< the current batch's draws
};

}  // namespace ccq::data
