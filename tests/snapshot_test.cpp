// Tests for quantized-model snapshots (save/resume of CCQ results).
#include <gtest/gtest.h>

#include <cstdio>

#include "ccq/core/snapshot.hpp"
#include "ccq/core/trainer.hpp"
#include "ccq/data/synthetic.hpp"
#include "ccq/models/simple.hpp"
#include "ccq/tensor/serialize.hpp"

namespace ccq::core {
namespace {

models::QuantModel make_model(std::uint64_t seed = 1) {
  models::ModelConfig mc;
  mc.num_classes = 4;
  mc.image_size = 8;
  mc.width_multiplier = 0.25f;
  mc.seed = seed;
  quant::QuantFactory factory{.policy = quant::Policy::kPact};
  return models::make_simple_cnn(mc, factory, quant::BitLadder({8, 4, 2}));
}

TEST(SnapshotTest, RoundTripsParametersAndPrecision) {
  auto model = make_model(1);
  // Put the model into a genuinely mixed state.
  model.registry().set_ladder_pos(0, 2);
  model.registry().set_ladder_pos(1, 1);
  model.registry().force_bits(2, 32);
  const std::string path = "/tmp/ccq_snapshot_test.bin";
  save_snapshot(model, path);

  auto other = make_model(99);  // different init, same structure
  ASSERT_TRUE(load_snapshot(other, path));
  EXPECT_EQ(other.registry().bits_of(0), 2);
  EXPECT_EQ(other.registry().bits_of(1), 4);
  EXPECT_EQ(other.registry().bits_of(2), 32);
  EXPECT_TRUE(other.registry().unit(2).frozen);
  EXPECT_EQ(other.registry().bits_of(3), 32);  // untouched: fp start

  auto pa = model.parameters();
  auto pb = other.parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(max_abs_diff(pa[i]->value, pb[i]->value), 0.0f) << pa[i]->name;
  }
  std::remove(path.c_str());
}

TEST(SnapshotTest, RestoredModelComputesIdentically) {
  Workspace ws;
  data::SyntheticConfig dc;
  dc.num_classes = 4;
  dc.samples_per_class = 10;
  dc.height = dc.width = 8;
  data::Dataset ds = data::make_synthetic_vision(dc);

  auto model = make_model(2);
  model.registry().set_all(1);
  const std::string path = "/tmp/ccq_snapshot_eval_test.bin";
  save_snapshot(model, path);

  auto restored = make_model(77);
  ASSERT_TRUE(load_snapshot(restored, path));
  const data::Batch batch = ds.all();
  model.set_training(false);
  restored.set_training(false);
  EXPECT_EQ(max_abs_diff(model.forward(batch.images, ws),
                         restored.forward(batch.images, ws)),
            0.0f);
  std::remove(path.c_str());
}

TEST(SnapshotTest, SnapshotCarryingAPickTrailStillLoads) {
  // Earlier `ccq run --snapshot` builds stored the controller's pick
  // trail as one extra tensor, [layer, ladder_pos, val_acc] per step.
  // Tensors are looked up by name, so such a snapshot loads as usual.
  auto model = make_model(8);
  model.registry().set_ladder_pos(0, 2);
  model.registry().set_ladder_pos(1, 1);
  const std::string path = "/tmp/ccq_snapshot_trail_test.bin";
  save_snapshot(model, path);
  TensorMap tensors = load_tensors(path);
  Tensor trail({2, 3});
  trail(0, 0) = 0.0f;
  trail(0, 1) = 2.0f;
  trail(0, 2) = 0.9f;
  trail(1, 0) = 1.0f;
  trail(1, 1) = 1.0f;
  trail(1, 2) = 0.85f;
  tensors.emplace("__ccq_rung_trail__", std::move(trail));
  save_tensors(path, tensors);

  auto restored = make_model(9);
  ASSERT_TRUE(load_snapshot(restored, path));
  EXPECT_EQ(restored.registry().bits_of(0), 2);
  EXPECT_EQ(restored.registry().bits_of(1), 4);
  auto pa = model.parameters();
  auto pb = restored.parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(max_abs_diff(pa[i]->value, pb[i]->value), 0.0f) << pa[i]->name;
  }
  std::remove(path.c_str());
}

TEST(SnapshotTest, MissingFileReturnsFalse) {
  auto model = make_model(3);
  EXPECT_FALSE(load_snapshot(model, "/tmp/ccq_definitely_missing_snap.bin"));
}

TEST(SnapshotTest, OffLadderBitsRejected) {
  auto model = make_model(4);
  model.registry().set_all(1);
  const std::string path = "/tmp/ccq_snapshot_ladder_test.bin";
  save_snapshot(model, path);

  // A model with a different ladder cannot host this snapshot.
  models::ModelConfig mc;
  mc.num_classes = 4;
  mc.image_size = 8;
  mc.width_multiplier = 0.25f;
  quant::QuantFactory factory{.policy = quant::Policy::kPact};
  auto other =
      models::make_simple_cnn(mc, factory, quant::BitLadder({8, 3, 2}));
  EXPECT_THROW(load_snapshot(other, path), Error);
  std::remove(path.c_str());
}

TEST(SnapshotTest, BnRunningStatsRoundTrip) {
  Workspace ws;
  // Running statistics are buffers, not parameters — they must still be
  // persisted or a restored model evaluates with uncalibrated BN.
  data::SyntheticConfig dc;
  dc.num_classes = 4;
  dc.samples_per_class = 10;
  dc.height = dc.width = 8;
  data::Dataset ds = data::make_synthetic_vision(dc);

  auto model = make_model(5);
  // A few training batches move the running stats off their defaults.
  TrainConfig cfg;
  cfg.epochs = 1;
  cfg.batch_size = 8;
  data::Dataset val = ds.take_tail(8);
  core::train(model, ds, val, cfg);

  const std::string path = "/tmp/ccq_snapshot_bn_test.bin";
  save_snapshot(model, path);
  auto restored = make_model(6);
  ASSERT_TRUE(load_snapshot(restored, path));
  auto orig_buffers = model.net().buffers();
  auto rest_buffers = restored.net().buffers();
  ASSERT_EQ(orig_buffers.size(), rest_buffers.size());
  ASSERT_FALSE(orig_buffers.empty());
  for (std::size_t i = 0; i < orig_buffers.size(); ++i) {
    EXPECT_EQ(max_abs_diff(*orig_buffers[i].second, *rest_buffers[i].second),
              0.0f)
        << orig_buffers[i].first;
  }
  // Eval-mode forwards now agree too (uses the running stats).
  model.set_training(false);
  restored.set_training(false);
  const data::Batch batch = val.all();
  EXPECT_EQ(max_abs_diff(model.forward(batch.images, ws),
                         restored.forward(batch.images, ws)),
            0.0f);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ccq::core
