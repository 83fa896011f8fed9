// Tests for datasets, loaders, augmentation and the synthetic generators.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <set>

#include "ccq/data/synthetic.hpp"

namespace ccq::data {
namespace {

Tensor tiny_image(float fill) { return Tensor({1, 2, 2}, fill); }

TEST(DatasetTest, AddAndAccess) {
  Dataset ds(1, 2, 2, 3);
  ds.add(tiny_image(0.5f), 1);
  EXPECT_EQ(ds.size(), 1u);
  EXPECT_EQ(ds.label(0), 1);
  EXPECT_FLOAT_EQ(ds.image(0)(0, 0, 0), 0.5f);
}

TEST(DatasetTest, ValidatesShapeAndLabel) {
  Dataset ds(1, 2, 2, 3);
  EXPECT_THROW(ds.add(Tensor({1, 3, 3}), 0), Error);
  EXPECT_THROW(ds.add(tiny_image(0), 3), Error);
  EXPECT_THROW(ds.add(tiny_image(0), -1), Error);
  EXPECT_THROW(ds.image(0), Error);
}

TEST(DatasetTest, GatherAssemblesBatch) {
  Dataset ds(1, 2, 2, 3);
  ds.add(tiny_image(0.1f), 0);
  ds.add(tiny_image(0.2f), 1);
  ds.add(tiny_image(0.3f), 2);
  const Batch b = ds.gather({2, 0});
  EXPECT_EQ(b.size(), 2u);
  EXPECT_EQ(b.labels[0], 2);
  EXPECT_FLOAT_EQ(b.images(0, 0, 0, 0), 0.3f);
  EXPECT_FLOAT_EQ(b.images(1, 0, 0, 0), 0.1f);
}

TEST(DatasetTest, AllReturnsEverything) {
  Dataset ds(1, 2, 2, 2);
  ds.add(tiny_image(0), 0);
  ds.add(tiny_image(1), 1);
  EXPECT_EQ(ds.all().size(), 2u);
}

TEST(DatasetTest, TakeTailSplits) {
  Dataset ds(1, 2, 2, 2);
  for (int i = 0; i < 10; ++i) ds.add(tiny_image(static_cast<float>(i)), i % 2);
  Dataset tail = ds.take_tail(3);
  EXPECT_EQ(ds.size(), 7u);
  EXPECT_EQ(tail.size(), 3u);
  EXPECT_FLOAT_EQ(tail.image(0)(0, 0, 0), 7.0f);
  EXPECT_THROW(ds.take_tail(100), Error);
}

TEST(DataLoaderTest, CoversEverySampleOncePerEpoch) {
  Dataset ds(1, 2, 2, 2);
  for (int i = 0; i < 10; ++i) ds.add(tiny_image(static_cast<float>(i)), 0);
  DataLoader loader(ds, 3, Augment{.horizontal_flip = false, .pad_crop = 0},
                    Rng(1));
  std::multiset<float> seen;
  Batch b;
  int batches = 0;
  while (loader.next(b)) {
    ++batches;
    for (std::size_t i = 0; i < b.size(); ++i) {
      seen.insert(b.images(i, 0, 0, 0));
    }
  }
  EXPECT_EQ(batches, 4);  // 3+3+3+1
  EXPECT_EQ(seen.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(seen.count(static_cast<float>(i)), 1u) << i;
  }
}

TEST(DataLoaderTest, BatchesPerEpoch) {
  Dataset ds(1, 2, 2, 2);
  for (int i = 0; i < 10; ++i) ds.add(tiny_image(0), 0);
  DataLoader loader(ds, 4, Augment{}, Rng(1));
  EXPECT_EQ(loader.batches_per_epoch(), 3u);
}

TEST(DataLoaderTest, ReshufflesBetweenEpochs) {
  Dataset ds(1, 2, 2, 2);
  for (int i = 0; i < 32; ++i) ds.add(tiny_image(static_cast<float>(i)), 0);
  DataLoader loader(ds, 32, Augment{.horizontal_flip = false, .pad_crop = 0},
                    Rng(2));
  Batch b1, b2;
  loader.next(b1);
  loader.start_epoch();
  loader.next(b2);
  // Same multiset of values but (with overwhelming probability) a
  // different order.
  bool different_order = false;
  for (std::size_t i = 0; i < 32; ++i) {
    if (b1.images(i, 0, 0, 0) != b2.images(i, 0, 0, 0)) {
      different_order = true;
      break;
    }
  }
  EXPECT_TRUE(different_order);
}

TEST(DataLoaderTest, DeterministicForSameSeed) {
  Dataset ds(1, 2, 2, 2);
  for (int i = 0; i < 16; ++i) ds.add(tiny_image(static_cast<float>(i)), 0);
  DataLoader a(ds, 4, Augment{}, Rng(7));
  DataLoader c(ds, 4, Augment{}, Rng(7));
  Batch ba, bc;
  while (a.next(ba)) {
    ASSERT_TRUE(c.next(bc));
    EXPECT_EQ(max_abs_diff(ba.images, bc.images), 0.0f);
  }
}

TEST(DataLoaderTest, AugmentationPreservesShapeAndRange) {
  Dataset ds = make_synthetic_cifar(4, 1, 16);
  DataLoader loader(ds, 8, Augment{.horizontal_flip = true, .pad_crop = 2},
                    Rng(3));
  Batch b;
  ASSERT_TRUE(loader.next(b));
  EXPECT_EQ(b.images.dim(2), 16u);
  EXPECT_EQ(b.images.dim(3), 16u);
  EXPECT_GE(b.images.min(), 0.0f);
  EXPECT_LE(b.images.max(), 1.0f);
}

TEST(DataLoaderTest, AugmentedBatchesReplayTheDocumentedDraws) {
  // Replays the loader's documented Rng draws — the epoch's shuffle, then
  // dy, dx and flip per sample — and rebuilds each augmented image with a
  // naive shift (zero outside the image) then flip, byte for byte, over
  // two epochs.  The images are 3×5×7, so a pad_crop of 6 shifts whole
  // rows and columns out of the frame.
  const std::size_t c = 3, h = 5, w = 7, count = 10;
  Dataset ds(c, h, w, 2);
  for (std::size_t n = 0; n < count; ++n) {
    Tensor image({c, h, w});
    for (std::size_t i = 0; i < image.numel(); ++i) {
      image.data()[i] = static_cast<float>(n * 1000 + i + 1);
    }
    ds.add(std::move(image), static_cast<int>(n % 2));
  }
  for (std::size_t pad : {0, 2, 6}) {
    for (bool flip : {false, true}) {
      SCOPED_TRACE("pad_crop " + std::to_string(pad) +
                   (flip ? ", flip" : ", no flip"));
      const std::uint64_t seed = 40 + pad;
      DataLoader loader(ds, 4, Augment{.horizontal_flip = flip,
                                       .pad_crop = pad},
                        Rng(seed));
      Rng replay(seed);
      for (int epoch = 0; epoch < 2; ++epoch) {
        if (epoch > 0) loader.start_epoch();
        std::vector<std::size_t> order(count);
        std::iota(order.begin(), order.end(), 0);
        replay.shuffle(order);
        Batch batch;
        std::size_t cursor = 0;
        while (loader.next(batch)) {
          for (std::size_t i = 0; i < batch.size(); ++i, ++cursor) {
            long dy = 0, dx = 0;
            if (pad > 0) {
              const long p = static_cast<long>(pad);
              dy = static_cast<long>(replay.uniform_int(2 * pad + 1)) - p;
              dx = static_cast<long>(replay.uniform_int(2 * pad + 1)) - p;
            }
            const bool mirrored = flip && replay.uniform() < 0.5;
            const Tensor& src = ds.image(order[cursor]);
            ASSERT_EQ(batch.labels[i], ds.label(order[cursor]));
            for (std::size_t ch = 0; ch < c; ++ch) {
              for (std::size_t y = 0; y < h; ++y) {
                for (std::size_t x = 0; x < w; ++x) {
                  const long sx =
                      static_cast<long>(mirrored ? w - 1 - x : x) + dx;
                  const long sy = static_cast<long>(y) + dy;
                  const bool inside = sy >= 0 && sy < static_cast<long>(h) &&
                                      sx >= 0 && sx < static_cast<long>(w);
                  const float want =
                      inside ? src(ch, static_cast<std::size_t>(sy),
                                   static_cast<std::size_t>(sx))
                             : 0.0f;
                  const float got = batch.images(i, ch, y, x);
                  ASSERT_EQ(std::memcmp(&got, &want, sizeof got), 0)
                      << "epoch " << epoch << " sample " << cursor << " ("
                      << ch << ", " << y << ", " << x << ") dy " << dy
                      << " dx " << dx << (mirrored ? " flipped" : "");
                }
              }
            }
          }
        }
        EXPECT_EQ(cursor, count);
      }
    }
  }
}

TEST(SyntheticTest, GeneratesRequestedCounts) {
  Dataset ds = make_synthetic_cifar(5, 42, 16);
  EXPECT_EQ(ds.size(), 50u);
  EXPECT_EQ(ds.num_classes(), 10u);
  EXPECT_EQ(ds.channels(), 3u);
  EXPECT_EQ(ds.height(), 16u);
}

TEST(SyntheticTest, DeterministicForSeed) {
  Dataset a = make_synthetic_cifar(2, 7, 8);
  Dataset b = make_synthetic_cifar(2, 7, 8);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(max_abs_diff(a.image(i), b.image(i)), 0.0f);
    EXPECT_EQ(a.label(i), b.label(i));
  }
  Dataset c = make_synthetic_cifar(2, 8, 8);
  EXPECT_GT(max_abs_diff(a.image(0), c.image(0)), 0.0f);
}

TEST(SyntheticTest, ClassesInterleavedForBalancedSplits) {
  Dataset ds = make_synthetic_cifar(3, 1, 8);
  // Within each group of 10 consecutive samples every class appears once.
  for (std::size_t g = 0; g < 3; ++g) {
    std::set<int> labels;
    for (std::size_t i = 0; i < 10; ++i) labels.insert(ds.label(g * 10 + i));
    EXPECT_EQ(labels.size(), 10u);
  }
}

TEST(SyntheticTest, PixelsInUnitRange) {
  Dataset ds = make_synthetic_cifar(2, 3, 12);
  for (std::size_t i = 0; i < ds.size(); ++i) {
    EXPECT_GE(ds.image(i).min(), 0.0f);
    EXPECT_LE(ds.image(i).max(), 1.0f);
  }
}

TEST(SyntheticTest, ClassesAreVisuallyDistinct) {
  // Mean images of different classes should differ much more than two
  // different samples of the same class — the signal a classifier learns.
  SyntheticConfig config;
  config.num_classes = 4;
  config.samples_per_class = 12;
  config.height = config.width = 12;
  Dataset ds = make_synthetic_vision(config);
  std::vector<Tensor> mean(4, Tensor({3, 12, 12}));
  std::vector<int> counts(4, 0);
  for (std::size_t i = 0; i < ds.size(); ++i) {
    mean[static_cast<std::size_t>(ds.label(i))] += ds.image(i);
    ++counts[static_cast<std::size_t>(ds.label(i))];
  }
  for (int c = 0; c < 4; ++c) {
    mean[static_cast<std::size_t>(c)] *= 1.0f / static_cast<float>(counts[static_cast<std::size_t>(c)]);
  }
  float min_between = 1e9f;
  for (int a = 0; a < 4; ++a) {
    for (int b = a + 1; b < 4; ++b) {
      const Tensor diff = mean[static_cast<std::size_t>(a)] - mean[static_cast<std::size_t>(b)];
      min_between = std::min(min_between, diff.sqnorm());
    }
  }
  EXPECT_GT(min_between, 1.0f);
}

TEST(SyntheticTest, ImagenetVariantIsHarder) {
  Dataset easy = make_synthetic_cifar(2, 5, 8);
  Dataset hard = make_synthetic_imagenet(2, 5, 40, 8);
  EXPECT_EQ(hard.num_classes(), 40u);
  EXPECT_EQ(hard.size(), 80u);
  (void)easy;
}

TEST(SyntheticTest, RejectsEmptyConfig) {
  SyntheticConfig config;
  config.num_classes = 0;
  EXPECT_THROW(make_synthetic_vision(config), Error);
}

}  // namespace
}  // namespace ccq::data
