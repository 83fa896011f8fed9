// Integration tests: the full CCQ controller (Algorithm 1) and the
// baselines, end to end on small models and data.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>

#include "ccq/core/baselines.hpp"
#include "ccq/core/ccq.hpp"
#include "ccq/core/controller.hpp"
#include "ccq/data/synthetic.hpp"
#include "ccq/models/simple.hpp"

namespace ccq::core {
namespace {

struct Fixture {
  data::Dataset train_set;
  data::Dataset val_set;
  models::QuantModel model;
};

Fixture make_fixture(quant::Policy policy = quant::Policy::kPact,
                     std::vector<int> ladder = {8, 4, 2}) {
  data::SyntheticConfig dc;
  dc.num_classes = 4;
  dc.samples_per_class = 40;
  dc.height = dc.width = 8;
  dc.seed = 5;
  data::Dataset train_set = data::make_synthetic_vision(dc);
  data::Dataset val_set = train_set.take_tail(48);

  models::ModelConfig mc;
  mc.num_classes = 4;
  mc.image_size = 8;
  mc.width_multiplier = 0.25f;
  quant::QuantFactory factory{.policy = policy};
  auto model =
      models::make_simple_cnn(mc, factory, quant::BitLadder(ladder));

  // Light pretraining so CCQ starts from a sensible network.
  TrainConfig pre;
  pre.epochs = 6;
  pre.batch_size = 16;
  pre.sgd = {.lr = 0.05, .momentum = 0.9, .weight_decay = 1e-4};
  train(model, train_set, val_set, pre);
  return Fixture{std::move(train_set), std::move(val_set), std::move(model)};
}

CcqConfig fast_config() {
  CcqConfig config;
  config.probes_per_step = 4;
  config.probe_samples = 48;
  config.max_recovery_epochs = 2;
  config.initial_recovery_epochs = 1;
  config.finetune.batch_size = 16;
  config.finetune.sgd = {.lr = 0.02, .momentum = 0.9, .weight_decay = 1e-4};
  config.hybrid_lr.base_lr = 0.02;
  return config;
}

TEST(CcqTest, RunsToLadderFloor) {
  Fixture f = make_fixture();
  const CcqResult r = run_ccq(f.model, f.train_set, f.val_set, fast_config());
  // 5 layers × 2 ladder transitions = 10 steps.
  EXPECT_EQ(r.steps.size(), 10u);
  for (int bits : r.final_bits) EXPECT_EQ(bits, 2);
  EXPECT_NEAR(r.final_compression, 16.0, 1e-6);
  EXPECT_TRUE(f.model.registry().all_sleeping());
}

TEST(CcqTest, AccuracyStaysNearBaseline) {
  Fixture f = make_fixture();
  const CcqResult r = run_ccq(f.model, f.train_set, f.val_set, fast_config());
  EXPECT_GT(r.baseline_accuracy, 0.6f);
  // Gradual quantization with recovery must not collapse the network.
  EXPECT_GT(r.final_accuracy, r.baseline_accuracy - 0.25f);
}

TEST(CcqTest, CurveRecordsQuantizationEvents) {
  Fixture f = make_fixture();
  const CcqResult r = run_ccq(f.model, f.train_set, f.val_set, fast_config());
  int events = 0;
  for (const auto& stat : r.curve) {
    if (!stat.event.empty()) ++events;
  }
  // One initial-quantization marker + one per step.
  EXPECT_EQ(events, 1 + static_cast<int>(r.steps.size()));
}

TEST(CcqTest, StepRecordsAreInternallyConsistent) {
  Fixture f = make_fixture();
  const CcqResult r = run_ccq(f.model, f.train_set, f.val_set, fast_config());
  double prev_compression = 0.0;
  for (const auto& step : r.steps) {
    EXPECT_LT(step.layer, f.model.registry().size());
    EXPECT_TRUE(step.new_bits == 4 || step.new_bits == 2);
    EXPECT_GE(step.recovery_epochs, 1);
    EXPECT_LE(step.recovery_epochs, 2);
    EXPECT_GT(step.compression, prev_compression);
    prev_compression = step.compression;
    // Pick distribution is a simplex over layers.
    double total = 0.0;
    for (double p : step.pick_probabilities) total += p;
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(CcqTest, MaxStepsBoundsTheRun) {
  Fixture f = make_fixture();
  CcqConfig config = fast_config();
  config.max_steps = 3;
  const CcqResult r = run_ccq(f.model, f.train_set, f.val_set, config);
  EXPECT_EQ(r.steps.size(), 3u);
  EXPECT_FALSE(f.model.registry().all_sleeping());
}

TEST(CcqTest, FrozenLayersAreNeverPicked) {
  Fixture f = make_fixture();
  f.model.registry().force_bits(0, 32);  // freeze first layer at fp32
  const CcqResult r = run_ccq(f.model, f.train_set, f.val_set, fast_config());
  for (const auto& step : r.steps) {
    EXPECT_NE(step.layer, 0u);
  }
  EXPECT_EQ(r.final_bits[0], 32);
  EXPECT_EQ(r.steps.size(), 8u);  // 4 remaining layers × 2 transitions
}

TEST(CcqTest, ManualRecoveryUsesFixedEpochs) {
  Fixture f = make_fixture();
  CcqConfig config = fast_config();
  config.recovery = RecoveryMode::kManual;
  config.manual_recovery_epochs = 1;
  const CcqResult r = run_ccq(f.model, f.train_set, f.val_set, config);
  for (const auto& step : r.steps) {
    EXPECT_EQ(step.recovery_epochs, 1);
  }
}

TEST(CcqTest, MemoryAwareOffStillConverges) {
  Fixture f = make_fixture();
  CcqConfig config = fast_config();
  config.memory_aware = false;
  const CcqResult r = run_ccq(f.model, f.train_set, f.val_set, config);
  EXPECT_EQ(r.steps.size(), 10u);
  for (const auto& step : r.steps) {
    EXPECT_DOUBLE_EQ(step.lambda, 0.0);
  }
}

TEST(CcqTest, MemoryAwarePrefersBigLayersEarly) {
  // With λ≈1 at the start, the first pick should be one of the biggest
  // layers (conv3 or conv2 carry most of the weights in SimpleCNN).
  Fixture f = make_fixture();
  CcqConfig config = fast_config();
  config.lambda_start = 1.0;
  config.lambda_end = 1.0;
  config.max_steps = 1;
  config.seed = 9;
  const CcqResult r = run_ccq(f.model, f.train_set, f.val_set, config);
  ASSERT_EQ(r.steps.size(), 1u);
  const auto& reg = f.model.registry();
  // The picked layer's weight share must be above average.
  const double share =
      static_cast<double>(reg.unit(r.steps[0].layer).weight_count) /
      static_cast<double>(reg.total_weights());
  EXPECT_GT(share, 1.0 / static_cast<double>(reg.size()));
}

TEST(CcqTest, LambdaDecaysLinearlyAcrossSteps) {
  Fixture f = make_fixture();
  CcqConfig config = fast_config();
  config.lambda_start = 0.8;
  config.lambda_end = 0.0;
  const CcqResult r = run_ccq(f.model, f.train_set, f.val_set, config);
  ASSERT_GE(r.steps.size(), 2u);
  EXPECT_NEAR(r.steps.front().lambda, 0.8, 1e-9);
  EXPECT_NEAR(r.steps.back().lambda, 0.0, 1e-9);
  for (std::size_t i = 1; i < r.steps.size(); ++i) {
    EXPECT_LE(r.steps[i].lambda, r.steps[i - 1].lambda + 1e-12);
  }
}

TEST(CcqTest, WorksWithEveryPolicy) {
  for (quant::Policy policy :
       {quant::Policy::kDoReFa, quant::Policy::kWrpn, quant::Policy::kLsq}) {
    Fixture f = make_fixture(policy, {8, 2});
    CcqConfig config = fast_config();
    const CcqResult r =
        run_ccq(f.model, f.train_set, f.val_set, config);
    EXPECT_EQ(r.steps.size(), 5u) << quant::policy_str(policy);
    EXPECT_GT(r.final_accuracy, 0.3f) << quant::policy_str(policy);
  }
}

TEST(CcqTest, SingleLayerModelDegeneratesGracefully) {
  data::SyntheticConfig dc;
  dc.num_classes = 3;
  dc.samples_per_class = 20;
  dc.height = dc.width = 6;
  data::Dataset train_set = data::make_synthetic_vision(dc);
  data::Dataset val_set = train_set.take_tail(15);

  // An MLP with zero hidden layers is not available; use the 3-unit MLP
  // with a two-level ladder to exercise the shortest possible run.
  models::ModelConfig mc;
  mc.num_classes = 3;
  mc.image_size = 6;
  quant::QuantFactory factory{.policy = quant::Policy::kPact};
  auto model = models::make_mlp(mc, factory, quant::BitLadder({4, 2}), 8);
  CcqConfig config = fast_config();
  config.probe_samples = 15;
  const CcqResult r = run_ccq(model, train_set, val_set, config);
  EXPECT_EQ(r.steps.size(), 3u);
}

// ---- baselines -------------------------------------------------------------

TEST(BaselinesTest, OneShotReachesRequestedCompression) {
  Fixture f = make_fixture();
  TrainConfig ft;
  ft.epochs = 2;
  ft.batch_size = 16;
  ft.sgd = {.lr = 0.02, .momentum = 0.9, .weight_decay = 1e-4};
  const OneShotResult r =
      one_shot_quantize(f.model, f.train_set, f.val_set, ft, 2);
  EXPECT_NEAR(r.compression, 16.0, 1e-6);
  EXPECT_GT(r.accuracy, 0.3f);
}

TEST(BaselinesTest, FisherSensitivityIsFiniteAndNonNegative) {
  Fixture f = make_fixture();
  const auto s = fisher_sensitivity(f.model, f.train_set, 64);
  ASSERT_EQ(s.size(), f.model.registry().size());
  for (double v : s) {
    EXPECT_GE(v, 0.0);
    EXPECT_TRUE(std::isfinite(v));
  }
  // At least one layer must register real sensitivity.
  EXPECT_GT(*std::max_element(s.begin(), s.end()), 0.0);
}

TEST(BaselinesTest, HawqProxyAssignsMixedPrecision) {
  Fixture f = make_fixture();
  TrainConfig ft;
  ft.epochs = 2;
  ft.batch_size = 16;
  ft.sgd = {.lr = 0.02, .momentum = 0.9, .weight_decay = 1e-4};
  const OneShotResult r =
      hawq_proxy_quantize(f.model, f.train_set, f.val_set, ft);
  // Mixed precision: more than one distinct bit width in use.
  std::set<int> bits;
  for (std::size_t i = 0; i < f.model.registry().size(); ++i) {
    bits.insert(f.model.registry().bits_of(i));
  }
  EXPECT_GT(bits.size(), 1u);
  EXPECT_GT(r.compression, 1.0);
}

// ---- the pick trail ----------------------------------------------------------

TEST(TrailPersistenceTest, ControllerRecordsPicksAndPersistsState) {
  data::SyntheticConfig dc;
  dc.num_classes = 4;
  dc.samples_per_class = 20;
  dc.height = dc.width = 8;
  dc.seed = 5;
  data::Dataset train_set = data::make_synthetic_vision(dc);
  data::Dataset val_set = train_set.take_tail(24);

  models::ModelConfig mc;
  mc.num_classes = 4;
  mc.image_size = 8;
  mc.width_multiplier = 0.25f;
  quant::QuantFactory factory{.policy = quant::Policy::kMinMax};
  auto model = models::make_simple_cnn(mc, factory,
                                       quant::BitLadder({8, 4, 2}));

  CcqConfig config;
  config.probes_per_step = 2;
  config.probe_samples = 24;
  config.max_recovery_epochs = 1;
  config.initial_recovery_epochs = 1;
  config.finetune.batch_size = 16;
  config.max_steps = 2;
  CcqController controller(model, train_set, val_set, config);
  controller.init();
  while (!controller.done()) controller.step();

  // One trail entry per committed step, each naming a real layer and a
  // real ladder position.
  const RungTrail& trail = controller.trail();
  ASSERT_EQ(trail.size(), 2u);
  for (const TrailStep& step : trail) {
    EXPECT_LT(step.layer, model.registry().size());
    EXPECT_LT(step.ladder_pos, model.registry().ladder().size());
  }

  // v2 state round-trip carries the trail.
  const std::string state_path =
      (std::filesystem::temp_directory_path() / "ccq_trail_state.bin")
          .string();
  controller.save_state(state_path);
  CcqController resumed(model, train_set, val_set, config);
  ASSERT_TRUE(resumed.load_state(state_path));
  EXPECT_EQ(resumed.trail(), trail);

  // A v1 state (an old build's output: no trail block) still loads —
  // with an empty trail.  Simulated by byte surgery: patch the version
  // field and splice out the trail section it precedes.
  std::string bytes;
  {
    std::ifstream is(state_path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(is), {});
  }
  const std::uint32_t v1 = 1;
  std::memcpy(bytes.data() + 8, &v1, sizeof(v1));  // after the u64 magic
  // Trail block lives after magic(8) + version(4) + layers(8) + step(4)
  // + epoch(4) + planned(4) + baseline(4) + recovery(4) = offset 40:
  // u64 count + count * (u32 layer + u32 pos + f32 acc).
  const std::size_t trail_bytes = 8 + trail.size() * 12;
  bytes.erase(40, trail_bytes);
  {
    std::ofstream os(state_path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  CcqController legacy(model, train_set, val_set, config);
  ASSERT_TRUE(legacy.load_state(state_path));
  EXPECT_TRUE(legacy.trail().empty());
  std::filesystem::remove(state_path);
}

}  // namespace
}  // namespace ccq::core
