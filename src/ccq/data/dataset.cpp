#include "ccq/data/dataset.hpp"

#include <algorithm>
#include <numeric>

#include "ccq/common/exec.hpp"

namespace ccq::data {

Dataset::Dataset(std::size_t channels, std::size_t height, std::size_t width,
                 std::size_t num_classes)
    : channels_(channels),
      height_(height),
      width_(width),
      num_classes_(num_classes) {
  CCQ_CHECK(channels > 0 && height > 0 && width > 0 && num_classes > 0,
            "invalid dataset geometry");
}

void Dataset::add(Tensor image, int label) {
  CCQ_CHECK(image.rank() == 3 && image.dim(0) == channels_ &&
                image.dim(1) == height_ && image.dim(2) == width_,
            "image shape mismatch");
  CCQ_CHECK(label >= 0 && static_cast<std::size_t>(label) < num_classes_,
            "label out of range");
  images_.push_back(std::move(image));
  labels_.push_back(label);
}

const Tensor& Dataset::image(std::size_t i) const {
  CCQ_CHECK(i < images_.size(), "image index out of range");
  return images_[i];
}

int Dataset::label(std::size_t i) const {
  CCQ_CHECK(i < labels_.size(), "label index out of range");
  return labels_[i];
}

void Dataset::gather_into(const std::vector<std::size_t>& indices,
                          Batch& batch) const {
  batch.images.resize({indices.size(), channels_, height_, width_});
  batch.labels.clear();
  batch.labels.reserve(indices.size());
  const std::size_t sample = channels_ * height_ * width_;
  float* dst = batch.images.data().data();
  for (std::size_t i = 0; i < indices.size(); ++i) {
    batch.labels.push_back(labels_[indices[i]]);
  }
  parallel_for(ExecContext::global(), indices.size(), 8,
               [&](std::size_t i0, std::size_t i1) {
    for (std::size_t i = i0; i < i1; ++i) {
      const float* src = image(indices[i]).data().data();
      std::copy(src, src + sample, dst + i * sample);
    }
  });
}

Batch Dataset::gather(const std::vector<std::size_t>& indices) const {
  Batch batch;
  gather_into(indices, batch);
  return batch;
}

Batch Dataset::all() const {
  std::vector<std::size_t> indices(size());
  std::iota(indices.begin(), indices.end(), 0);
  return gather(indices);
}

Dataset Dataset::take_tail(std::size_t count) {
  CCQ_CHECK(count <= size(), "tail larger than dataset");
  Dataset tail(channels_, height_, width_, num_classes_);
  const std::size_t start = size() - count;
  for (std::size_t i = start; i < size(); ++i) {
    tail.add(std::move(images_[i]), labels_[i]);
  }
  images_.resize(start);
  labels_.resize(start);
  return tail;
}

DataLoader::DataLoader(const Dataset& dataset, std::size_t batch_size,
                       Augment augment, Rng rng)
    : dataset_(dataset),
      batch_size_(batch_size),
      augment_(augment),
      rng_(rng),
      order_(dataset.size()) {
  CCQ_CHECK(batch_size > 0, "batch size must be positive");
  start_epoch();
}

void DataLoader::start_epoch() {
  // Rebuild from the identity before shuffling so the epoch order is a
  // pure function of the RNG state — not of how many epochs this loader
  // has already served.  Resume (set_rng_state) depends on this: a fresh
  // loader with a restored RNG must reproduce the same epoch sequence.
  std::iota(order_.begin(), order_.end(), 0);
  rng_.shuffle(order_);
  cursor_ = 0;
}

std::size_t DataLoader::batches_per_epoch() const {
  return (dataset_.size() + batch_size_ - 1) / batch_size_;
}

DataLoader::AugmentDraw DataLoader::draw_augment() {
  // Draw order (dy, dx, flip) matches the historical per-sample order so
  // seeded runs reproduce the exact pre-parallelism batches.
  AugmentDraw draw;
  if (augment_.pad_crop > 0) {
    const long pad = static_cast<long>(augment_.pad_crop);
    draw.dy = static_cast<long>(rng_.uniform_int(2 * pad + 1)) - pad;
    draw.dx = static_cast<long>(rng_.uniform_int(2 * pad + 1)) - pad;
  }
  if (augment_.horizontal_flip) draw.flip = rng_.uniform() < 0.5;
  return draw;
}

namespace {

/// Write one C×H×W image shifted by (dy, dx) — zero where the source
/// pixel falls outside — and then, with `flip`, mirrored left to right,
/// into `dst`.  Pure data movement: every output float is a source float
/// or +0.
void augment_into(const float* src, std::size_t c, std::size_t h,
                  std::size_t w, long dy, long dx, bool flip, float* dst) {
  const long wl = static_cast<long>(w);
  // Output columns [lo, hi) read the source; the rest are zero.  Without
  // a flip column x reads x + dx, with one w − 1 − x + dx.
  const long lo = std::clamp(flip ? dx : -dx, 0L, wl);
  const long hi = std::clamp(flip ? wl + dx : wl - dx, lo, wl);
  for (std::size_t ch = 0; ch < c; ++ch) {
    for (std::size_t y = 0; y < h; ++y) {
      float* row = dst + (ch * h + y) * w;
      const long sy = static_cast<long>(y) + dy;
      if (sy < 0 || sy >= static_cast<long>(h) || lo == hi) {
        std::fill(row, row + w, 0.0f);
        continue;
      }
      const float* srow = src + (ch * h + static_cast<std::size_t>(sy)) * w;
      std::fill(row, row + lo, 0.0f);
      if (flip) {
        // Columns lo..hi−1 read w−1−lo+dx down to w−hi+dx.
        std::reverse_copy(srow + (wl - hi + dx), srow + (wl - lo + dx),
                          row + lo);
      } else {
        std::copy(srow + (lo + dx), srow + (hi + dx), row + lo);
      }
      std::fill(row + hi, row + w, 0.0f);
    }
  }
}

}  // namespace

bool DataLoader::next(Batch& out) {
  if (cursor_ >= order_.size()) return false;
  const std::size_t take =
      std::min(batch_size_, order_.size() - cursor_);
  const std::size_t c = dataset_.channels(), h = dataset_.height(),
                    w = dataset_.width();
  const std::size_t sample = c * h * w;
  out.images.resize({take, c, h, w});
  out.labels.clear();
  out.labels.reserve(take);
  float* dst = out.images.data().data();
  // RNG consumption happens serially in sample order; the augmented
  // images (disjoint batch rows) are then written in parallel.
  draws_.resize(take);
  for (std::size_t i = 0; i < take; ++i) {
    draws_[i] = draw_augment();
    out.labels.push_back(dataset_.label(order_[cursor_ + i]));
  }
  parallel_for(ExecContext::global(), take, 4,
               [&](std::size_t i0, std::size_t i1) {
    for (std::size_t i = i0; i < i1; ++i) {
      const AugmentDraw& d = draws_[i];
      augment_into(dataset_.image(order_[cursor_ + i]).data().data(), c, h, w,
                   d.dy, d.dx, d.flip, dst + i * sample);
    }
  });
  cursor_ += take;
  return true;
}

}  // namespace ccq::data
