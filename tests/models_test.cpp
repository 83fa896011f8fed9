// Tests for the model builders: shapes, registry wiring, MAC accounting.
#include <gtest/gtest.h>

#include "ccq/models/resnet.hpp"
#include "ccq/models/simple.hpp"
#include "ccq/nn/loss.hpp"

namespace ccq::models {
namespace {

ModelConfig tiny_config(std::size_t image = 8, float width = 0.25f) {
  ModelConfig c;
  c.num_classes = 10;
  c.image_size = image;
  c.width_multiplier = width;
  c.start_at_fp = true;
  return c;
}

quant::QuantFactory pact_factory() {
  return quant::QuantFactory{.policy = quant::Policy::kPact};
}

TEST(SimpleCnnTest, ForwardShapeAndRegistry) {
  Workspace ws;
  auto model = make_simple_cnn(tiny_config(), pact_factory(),
                               quant::BitLadder({8, 4, 2}));
  EXPECT_EQ(model.registry().size(), 5u);
  Rng rng(1);
  Tensor x = Tensor::rand_uniform({2, 3, 8, 8}, rng, 0.0f, 1.0f);
  const Tensor y = model.forward(x, ws);
  EXPECT_EQ(y.shape(), (Shape{2, 10}));
}

TEST(SimpleCnnTest, StartsAtFullPrecision) {
  auto model = make_simple_cnn(tiny_config(), pact_factory(),
                               quant::BitLadder({8, 4, 2}));
  for (std::size_t i = 0; i < model.registry().size(); ++i) {
    EXPECT_EQ(model.registry().bits_of(i), 32);
  }
  EXPECT_NEAR(model.registry().compression_ratio(), 1.0, 1e-9);
}

TEST(SimpleCnnTest, BackwardProducesInputGradient) {
  Workspace ws;
  auto model = make_simple_cnn(tiny_config(), pact_factory(),
                               quant::BitLadder({8, 4, 2}));
  Rng rng(2);
  Tensor x = Tensor::rand_uniform({2, 3, 8, 8}, rng, 0.0f, 1.0f);
  nn::SoftmaxCrossEntropy loss;
  const Tensor logits = model.forward(x, ws);
  loss.forward(logits, {0, 1});
  const Tensor gx = model.net().backward(loss.backward(), ws);
  EXPECT_EQ(gx.shape(), x.shape());
  EXPECT_FALSE(gx.has_nonfinite());
}

TEST(MlpTest, RegistryHasThreeUnits) {
  Workspace ws;
  auto model = make_mlp(tiny_config(), pact_factory(),
                        quant::BitLadder({8, 4, 2}), 16);
  EXPECT_EQ(model.registry().size(), 3u);
  Rng rng(3);
  Tensor x = Tensor::rand_uniform({4, 3, 8, 8}, rng, 0.0f, 1.0f);
  EXPECT_EQ(model.forward(x, ws).shape(), (Shape{4, 10}));
}

TEST(ResNet20Test, LayerCountMatchesTopology) {
  auto model = make_resnet20(tiny_config(16), pact_factory(),
                             quant::BitLadder({8, 4, 2}));
  // stem + 9 blocks × 2 convs + 2 projection shortcuts + fc = 22 units.
  EXPECT_EQ(model.registry().size(), 22u);
  EXPECT_EQ(model.name(), "ResNet20");
}

TEST(ResNet20Test, ForwardShape) {
  Workspace ws;
  auto model = make_resnet20(tiny_config(16), pact_factory(),
                             quant::BitLadder({8, 4, 2}));
  Rng rng(4);
  Tensor x = Tensor::rand_uniform({2, 3, 16, 16}, rng, 0.0f, 1.0f);
  EXPECT_EQ(model.forward(x, ws).shape(), (Shape{2, 10}));
}

TEST(ResNet20Test, QuantizedForwardStaysFinite) {
  Workspace ws;
  auto model = make_resnet20(tiny_config(16), pact_factory(),
                             quant::BitLadder({8, 4, 2}));
  model.registry().set_all(2);  // everything at 2 bits
  Rng rng(5);
  Tensor x = Tensor::rand_uniform({2, 3, 16, 16}, rng, 0.0f, 1.0f);
  const Tensor y = model.forward(x, ws);
  EXPECT_FALSE(y.has_nonfinite());
  EXPECT_NEAR(model.registry().compression_ratio(), 16.0, 1e-6);
}

TEST(ResNet18Test, LayerCountMatchesTopology) {
  Workspace ws;
  auto model = make_resnet18(tiny_config(16, 0.125f), pact_factory(),
                             quant::BitLadder({8, 4, 2}));
  // stem + 8 blocks × 2 convs + 3 projections + fc = 21 units.
  EXPECT_EQ(model.registry().size(), 21u);
  Rng rng(6);
  Tensor x = Tensor::rand_uniform({1, 3, 16, 16}, rng, 0.0f, 1.0f);
  EXPECT_EQ(model.forward(x, ws).shape(), (Shape{1, 10}));
}

TEST(ResNet50Test, LayerCountMatchesTopology) {
  Workspace ws;
  auto model = make_resnet50(tiny_config(16, 0.0625f), pact_factory(),
                             quant::BitLadder({8, 4, 2}));
  // stem + 16 bottlenecks × 3 convs + 4 projections + fc = 54 units.
  EXPECT_EQ(model.registry().size(), 54u);
  Rng rng(7);
  Tensor x = Tensor::rand_uniform({1, 3, 16, 16}, rng, 0.0f, 1.0f);
  EXPECT_EQ(model.forward(x, ws).shape(), (Shape{1, 10}));
}

TEST(ResNetTest, MacsArePositiveAndOrdered) {
  auto model = make_resnet20(tiny_config(16), pact_factory(),
                             quant::BitLadder({8, 4, 2}));
  std::size_t total = 0;
  for (std::size_t i = 0; i < model.registry().size(); ++i) {
    EXPECT_GT(model.registry().unit(i).macs, 0u) << i;
    total += model.registry().unit(i).macs;
  }
  // Stem conv on a 16×16 input: 3·3·3 patch × 256 pixels × stem channels.
  const auto& stem = model.registry().unit(0);
  EXPECT_EQ(stem.macs, 27u * 256u * (stem.weight_count / 27u));
  EXPECT_GT(total, stem.macs * 5);
}

TEST(ResNetTest, WidthMultiplierScalesParameters) {
  auto narrow = make_resnet20(tiny_config(16, 0.25f), pact_factory(),
                              quant::BitLadder({8, 4, 2}));
  auto wide = make_resnet20(tiny_config(16, 0.5f), pact_factory(),
                            quant::BitLadder({8, 4, 2}));
  EXPECT_GT(wide.registry().total_weights(),
            2 * narrow.registry().total_weights());
}

TEST(ResNetTest, DeterministicInitialisation) {
  Workspace ws;
  auto a = make_resnet20(tiny_config(16), pact_factory(),
                         quant::BitLadder({8, 4, 2}));
  auto b = make_resnet20(tiny_config(16), pact_factory(),
                         quant::BitLadder({8, 4, 2}));
  Rng rng(8);
  Tensor x = Tensor::rand_uniform({1, 3, 16, 16}, rng, 0.0f, 1.0f);
  a.set_training(false);
  b.set_training(false);
  EXPECT_EQ(max_abs_diff(a.forward(x, ws), b.forward(x, ws)), 0.0f);
}

TEST(ResNetTest, UniqueParameterNames) {
  auto model = make_resnet50(tiny_config(8, 0.0625f), pact_factory(),
                             quant::BitLadder({8, 4, 2}));
  std::set<std::string> names;
  for (const auto* p : model.parameters()) {
    EXPECT_TRUE(names.insert(p->name).second) << "duplicate " << p->name;
  }
}

TEST(ResNetTest, LastUnitIsTheClassifier) {
  auto model = make_resnet20(tiny_config(16), pact_factory(),
                             quant::BitLadder({8, 4, 2}));
  const auto& last = model.registry().unit(model.registry().size() - 1);
  EXPECT_EQ(last.name.substr(0, 2), "fc");
  EXPECT_EQ(last.act, nullptr);
}

TEST(ResNetTest, StartOnLadderWhenConfigured) {
  ModelConfig c = tiny_config(16);
  c.start_at_fp = false;
  auto model = make_resnet20(c, pact_factory(), quant::BitLadder({8, 4, 2}));
  for (std::size_t i = 0; i < model.registry().size(); ++i) {
    EXPECT_EQ(model.registry().bits_of(i), 8);
  }
}

}  // namespace
}  // namespace ccq::models
