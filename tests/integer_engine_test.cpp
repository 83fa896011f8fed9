// Tests for the integer inference engine: BN folding, code extraction,
// and — the headline property — parity with the float-simulated
// quantized forward pass.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "ccq/core/trainer.hpp"
#include "ccq/nn/conv.hpp"
#include "ccq/nn/linear.hpp"
#include "ccq/nn/loss.hpp"
#include "ccq/nn/norm.hpp"
#include "ccq/nn/pool.hpp"
#include "ccq/data/synthetic.hpp"
#include "ccq/hw/integer_engine.hpp"
#include "ccq/models/resnet.hpp"
#include "ccq/models/simple.hpp"

namespace ccq::hw {
namespace {

/// Snap a batch of images to the engine's 8-bit input grid so the float
/// reference sees exactly the same inputs.
Tensor snap_input(Tensor x) {
  x.apply([](float v) {
    return std::clamp(std::round(v * 255.0f), 0.0f, 255.0f) / 255.0f;
  });
  return x;
}

struct EngineSetup {
  data::Dataset train;
  data::Dataset val;
  models::QuantModel model;
};

enum class Arch { kCnn, kMlp, kPoolCnn };

/// conv→BN→act→maxpool twice, then flatten→linear: max-pooling and
/// conv-then-flatten, which neither stock model reaches (SimpleCNN ends
/// in global-average-pool, the MLP has no conv).
models::QuantModel make_pool_cnn(const models::ModelConfig& mc,
                                 const quant::QuantFactory& factory,
                                 const quant::BitLadder& ladder) {
  auto net = std::make_unique<nn::Sequential>();
  auto registry = std::make_unique<quant::LayerRegistry>(ladder);
  Rng rng(mc.seed);
  std::size_t in_ch = mc.in_channels, hw = mc.image_size;
  for (int i = 0; i < 2; ++i) {
    const std::size_t out_ch = 8;
    const std::string name = "conv" + std::to_string(i);
    auto hook = factory.make_weight_hook(name);
    auto conv = std::make_unique<nn::Conv2d>(in_ch, out_ch, 3, 1, 1,
                                             /*bias=*/false, rng, name);
    conv->set_weight_quantizer(hook);
    auto act = factory.make_activation("act" + std::to_string(i));
    quant::QuantUnit unit;
    unit.name = name;
    unit.weight_hook = std::move(hook);
    unit.act = act.get();
    unit.weight_count = conv->weight().numel();
    unit.macs = conv->macs_per_sample(hw, hw);
    net->add_module(std::move(conv));
    net->add<nn::BatchNorm2d>(out_ch, 0.1f, 1e-5f, "bn" + std::to_string(i));
    net->add_module(std::move(act));
    net->add<nn::MaxPool2d>(2, 2);
    registry->add(std::move(unit), mc.start_at_fp);
    in_ch = out_ch;
    hw /= 2;
  }
  net->add<nn::Flatten>();
  auto fc_hook = factory.make_weight_hook("fc");
  auto fc = std::make_unique<nn::Linear>(in_ch * hw * hw, mc.num_classes,
                                         /*bias=*/true, rng, "fc");
  fc->set_weight_quantizer(fc_hook);
  quant::QuantUnit fc_unit;
  fc_unit.name = "fc";
  fc_unit.weight_hook = std::move(fc_hook);
  fc_unit.weight_count = fc->weight().numel();
  fc_unit.macs = fc->macs_per_sample();
  net->add_module(std::move(fc));
  registry->add(std::move(fc_unit), mc.start_at_fp);
  return models::QuantModel("PoolCNN", mc, std::move(net),
                            std::move(registry));
}

EngineSetup make_setup(quant::Policy policy, std::size_t ladder_floor_pos,
                       Arch arch = Arch::kCnn) {
  data::SyntheticConfig dc;
  dc.num_classes = 5;
  dc.samples_per_class = 30;
  dc.height = dc.width = 8;
  dc.seed = 77;
  data::Dataset train = data::make_synthetic_vision(dc);
  data::Dataset val = train.take_tail(30);

  models::ModelConfig mc;
  mc.num_classes = 5;
  mc.image_size = 8;
  mc.width_multiplier = 0.25f;
  quant::QuantFactory factory{.policy = policy};
  quant::BitLadder ladder({8, 4, 2});
  auto model = arch == Arch::kCnn ? models::make_simple_cnn(mc, factory, ladder)
               : arch == Arch::kMlp ? models::make_mlp(mc, factory, ladder, 16)
                                    : make_pool_cnn(mc, factory, ladder);

  core::TrainConfig cfg;
  cfg.epochs = 4;
  cfg.batch_size = 16;
  cfg.sgd = {.lr = 0.05, .momentum = 0.9, .weight_decay = 1e-4};
  core::train(model, train, val, cfg);
  model.registry().set_all(ladder_floor_pos);
  // A couple of quantization-aware epochs so BN stats and PACT clips
  // settle on the quantized network.
  core::TrainConfig ft;
  ft.epochs = 2;
  ft.batch_size = 16;
  ft.sgd = {.lr = 0.01, .momentum = 0.9, .weight_decay = 1e-4};
  core::train(model, train, val, ft);
  return EngineSetup{std::move(train), std::move(val), std::move(model)};
}

void expect_parity(EngineSetup& s, float logit_tol, float min_label_agreement) {
  Workspace ws;
  IntegerNetwork net = IntegerNetwork::compile(s.model);
  const data::Batch batch = s.val.all();
  const Tensor x = snap_input(batch.images);

  s.model.set_training(false);
  const Tensor ref = s.model.forward(x, ws);
  const Tensor out = net.forward(x);
  ASSERT_EQ(out.shape(), ref.shape());

  // Logit-level closeness.
  float max_err = 0.0f;
  std::size_t agree = 0;
  const std::size_t n = out.dim(0), c = out.dim(1);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t best_ref = 0, best_out = 0;
    for (std::size_t j = 0; j < c; ++j) {
      max_err = std::max(max_err, std::fabs(out(i, j) - ref(i, j)));
      if (ref(i, j) > ref(i, best_ref)) best_ref = j;
      if (out(i, j) > out(i, best_out)) best_out = j;
    }
    if (best_ref == best_out) ++agree;
  }
  EXPECT_LT(max_err, logit_tol);
  EXPECT_GE(static_cast<float>(agree) / static_cast<float>(n),
            min_label_agreement);
}

TEST(IntegerEngineTest, CompilesSimpleCnn) {
  EngineSetup s = make_setup(quant::Policy::kMinMax, 1);
  IntegerNetwork net = IntegerNetwork::compile(s.model);
  // 4 conv + gap + fc = 6 plans (BN/act folded into conv plans).
  EXPECT_EQ(net.layer_count(), 6u);
  EXPECT_EQ(net.plan(0).kind, IntLayerPlan::Kind::kConv);
  EXPECT_TRUE(net.plan(0).has_act);
  EXPECT_EQ(net.plan(5).kind, IntLayerPlan::Kind::kLinear);
  EXPECT_FALSE(net.plan(5).has_act);
}

TEST(IntegerEngineTest, WeightCodesFitTheBitWidth) {
  EngineSetup s = make_setup(quant::Policy::kMinMax, 2);  // 2-bit floor
  IntegerNetwork net = IntegerNetwork::compile(s.model);
  for (std::size_t l = 0; l < net.layer_count(); ++l) {
    const auto& plan = net.plan(l);
    if (plan.kind != IntLayerPlan::Kind::kConv &&
        plan.kind != IntLayerPlan::Kind::kLinear) {
      continue;
    }
    // Doubled codes of a 2-bit symmetric grid lie in {−2, 0, 2}.
    for (std::int32_t code : plan.weight_codes) {
      EXPECT_LE(std::abs(code), 2 * ((1 << (plan.weight_bits - 1)) - 1));
    }
  }
}

TEST(IntegerEngineTest, ParityMinMax4Bit) {
  EngineSetup s = make_setup(quant::Policy::kMinMax, 1);
  expect_parity(s, 0.05f, 0.95f);
}

TEST(IntegerEngineTest, ParityMinMax2Bit) {
  EngineSetup s = make_setup(quant::Policy::kMinMax, 2);
  expect_parity(s, 0.05f, 0.95f);
}

TEST(IntegerEngineTest, ParityPact4Bit) {
  // PACT uses DoReFa's half-offset weight grid — exercises code doubling.
  EngineSetup s = make_setup(quant::Policy::kPact, 1);
  expect_parity(s, 0.05f, 0.95f);
}

TEST(IntegerEngineTest, ParityWrpn8Bit) {
  EngineSetup s = make_setup(quant::Policy::kWrpn, 0);
  expect_parity(s, 0.05f, 0.95f);
}

TEST(IntegerEngineTest, ParityMlp) {
  EngineSetup s = make_setup(quant::Policy::kMinMax, 1, Arch::kMlp);
  expect_parity(s, 0.02f, 0.99f);
}

// The engine's pooling glue and its conv-then-flatten path, checked
// against the float-simulated forward rather than the engine's own
// reference backend (which shares the layer walk).
TEST(IntegerEngineTest, ParityMaxPoolFlattenMinMax4Bit) {
  EngineSetup s = make_setup(quant::Policy::kMinMax, 1, Arch::kPoolCnn);
  ASSERT_EQ(IntegerNetwork::compile(s.model).layer_count(), 6u);
  expect_parity(s, 0.05f, 0.95f);
}

TEST(IntegerEngineTest, ParityMaxPoolFlattenPact2Bit) {
  EngineSetup s = make_setup(quant::Policy::kPact, 2, Arch::kPoolCnn);
  expect_parity(s, 0.05f, 0.95f);
}

TEST(IntegerEngineTest, AccuracyMatchesFloatSimulation) {
  Workspace ws;
  EngineSetup s = make_setup(quant::Policy::kPact, 1);
  IntegerNetwork net = IntegerNetwork::compile(s.model);
  const data::Batch batch = s.val.all();
  const Tensor x = snap_input(batch.images);
  s.model.set_training(false);
  const Tensor ref = s.model.forward(x, ws);
  const Tensor out = net.forward(x);
  const float ref_acc = nn::SoftmaxCrossEntropy::accuracy(ref, batch.labels);
  const float int_acc = nn::SoftmaxCrossEntropy::accuracy(out, batch.labels);
  EXPECT_NEAR(ref_acc, int_acc, 0.05f);
}

TEST(IntegerEngineTest, MacsPerSampleMatchesRegistry) {
  EngineSetup s = make_setup(quant::Policy::kMinMax, 1);
  IntegerNetwork net = IntegerNetwork::compile(s.model);
  std::size_t registry_macs = 0;
  for (std::size_t i = 0; i < s.model.registry().size(); ++i) {
    registry_macs += s.model.registry().unit(i).macs;
  }
  EXPECT_EQ(net.macs_per_sample(8, 8), registry_macs);
}

// ---- blocked igemm datapath vs the naive specification ---------------------

/// The headline igemm property at the engine level: the blocked packed-
/// panel forward must be BIT-identical to the naive int64 triple loop
/// (`forward_reference`) — same codes, same accumulation results, same
/// float epilogue — for every layer mix, bit floor and thread count.
void expect_bitwise_forward(EngineSetup& s) {
  IntegerNetwork net = IntegerNetwork::compile(s.model);
  const Tensor x = snap_input(s.val.all().images);
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    const ExecContext ctx(threads);
    Workspace ws;
    const Tensor fast = net.forward(x, ws, ctx);
    const Tensor ref = net.forward_reference(x, ws, ctx);
    ASSERT_EQ(fast.shape(), ref.shape());
    const auto fp = fast.data();
    const auto rp = ref.data();
    for (std::size_t i = 0; i < fp.size(); ++i) {
      ASSERT_EQ(fp[i], rp[i])
          << "logit " << i << " diverged at threads=" << threads;
    }
  }
}

TEST(IntegerEngineTest, BlockedForwardBitIdenticalCnn4Bit) {
  EngineSetup s = make_setup(quant::Policy::kMinMax, 1);
  expect_bitwise_forward(s);
}

TEST(IntegerEngineTest, BlockedForwardBitIdenticalCnn2Bit) {
  EngineSetup s = make_setup(quant::Policy::kPact, 2);
  expect_bitwise_forward(s);
}

TEST(IntegerEngineTest, BlockedForwardBitIdenticalMlp) {
  EngineSetup s = make_setup(quant::Policy::kMinMax, 0, Arch::kMlp);
  expect_bitwise_forward(s);
}

// ---- compiled plans and the 8-bit ceiling -----------------------------------

TEST(IntegerEngineTest, CompiledPlansCarryPackedPanels) {
  EngineSetup s = make_setup(quant::Policy::kMinMax, 1);
  IntegerNetwork net = IntegerNetwork::compile(s.model);
  for (std::size_t l = 0; l < net.layer_count(); ++l) {
    const auto& plan = net.plan(l);
    if (plan.kind != IntLayerPlan::Kind::kConv &&
        plan.kind != IntLayerPlan::Kind::kLinear) {
      continue;
    }
    ASSERT_FALSE(plan.panel.empty());
    ASSERT_EQ(plan.panel.rows * plan.panel.depth, plan.weight_codes.size());
    EXPECT_EQ(plan.panel.kernel, plan.igemm_kernel);
    // Auto selection must land on the kernel the registry would pick for
    // this layer's static bounds.
    EXPECT_EQ(plan.igemm_kernel,
              igemm_select_kernel(igemm_requested_kernel(), plan.max_abs_code,
                                  plan.in_code_bound));
    EXPECT_GT(plan.in_code_bound, 0);
    EXPECT_LE(plan.in_code_bound, 255);
    EXPECT_TRUE(
        igemm_fits_int32(plan.max_abs_code, plan.in_code_bound,
                         plan.kind == IntLayerPlan::Kind::kConv
                             ? plan.in_channels * plan.kernel * plan.kernel
                             : plan.in_features));
  }
}

/// A synthetic linear head at the int32 boundary.  Codes of magnitude
/// 255 against the 8-bit input bound (255) prove int32 up to depth 33025
/// (255·255·33025 = 2,147,450,625 ≤ INT32_MAX); one feature more fails
/// the proof.
IntLayerPlan boundary_linear_plan(std::size_t in_features) {
  IntLayerPlan plan;
  plan.kind = IntLayerPlan::Kind::kLinear;
  plan.name = "fc_boundary";
  plan.in_features = in_features;
  plan.out_features = 2;
  plan.weight_bits = 8;
  plan.weight_codes.assign(plan.out_features * in_features, 255);
  plan.channel_scale.assign(plan.out_features, 1e-6f);
  plan.bias.assign(plan.out_features, 0.0f);
  return plan;
}

std::string from_plans_error(std::vector<IntLayerPlan> plans) {
  try {
    IntegerNetwork::from_plans(std::move(plans));
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

std::string compile_error(models::QuantModel& model) {
  try {
    IntegerNetwork::compile(model);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(IntegerEngineTest, DeepestInt32LayerStaysExact) {
  // Worst-case inputs on the deepest layer the int32 proof admits: every
  // activation snaps to the top input code (255) and every weight code is
  // 255, so each sum is 2,147,450,625, within 33 Ki of INT32_MAX.
  const std::size_t k = 33025;
  IntLayerPlan flat;  // the engine expects NCHW input
  flat.kind = IntLayerPlan::Kind::kFlatten;
  flat.name = "flatten@0";
  const IntegerNetwork net =
      IntegerNetwork::from_plans({flat, boundary_linear_plan(k)});
  EXPECT_EQ(net.plan(1).max_abs_code, 255);
  EXPECT_EQ(net.plan(1).in_code_bound, 255);
  Tensor x({1, 1, 1, k});
  for (auto& v : x.data()) v = 1.0f;  // snaps to code 255 everywhere
  const Tensor fast = net.forward(x);
  const Tensor ref = net.forward_reference(x);
  ASSERT_EQ(fast.shape(), ref.shape());
  const float sum =
      static_cast<float>(std::int64_t{255} * 255 * static_cast<std::int64_t>(k));
  for (std::size_t i = 0; i < fast.data().size(); ++i) {
    EXPECT_EQ(fast.data()[i], ref.data()[i]);
    EXPECT_EQ(fast.data()[i], sum * 1e-6f);
  }
}

TEST(IntegerEngineTest, FromPlansRejectsLayersPastTheEightBitCeiling) {
  // One feature deeper than the int32 proof allows.
  std::string message = from_plans_error({boundary_linear_plan(33026)});
  EXPECT_NE(message.find("'fc_boundary'"), std::string::npos) << message;
  EXPECT_NE(message.find("33026"), std::string::npos) << message;
  EXPECT_NE(message.find("int32"), std::string::npos) << message;

  // Weight grids above 8 bits.
  for (int bits : {9, 12}) {
    IntLayerPlan wide = boundary_linear_plan(16);
    wide.weight_bits = bits;
    message = from_plans_error({wide});
    EXPECT_NE(message.find("'fc_boundary'"), std::string::npos) << message;
    EXPECT_NE(message.find(std::to_string(bits) + "-bit weight grid"),
              std::string::npos)
        << message;
  }

  // A quantized activation grid between 8 and 16 bits; 16 and above is
  // the unquantized head, which stays legal as the last layer.
  IntLayerPlan act = boundary_linear_plan(16);
  act.has_act = true;
  act.act_clip = 1.0f;
  act.act_bits = 12;
  message = from_plans_error({act});
  EXPECT_NE(message.find("'fc_boundary'"), std::string::npos) << message;
  EXPECT_NE(message.find("12-bit activation grid"), std::string::npos)
      << message;
  act.act_bits = 16;
  EXPECT_EQ(from_plans_error({act}), "");
}

// ---- per-channel plan vectors ----------------------------------------------
// The epilogues index channel_scale, bias and requant by output channel
// and requant_apply shifts by requant.shift, so finalize rejects a plan
// whose vectors do not hold one entry per output channel, or whose
// shift lies outside [1, 62], naming the layer — in from_plans, not just
// the artifact reader.

/// A fused 4-bit linear layer with valid requant parameters (two
/// output channels).
IntLayerPlan fused_linear_plan() {
  IntLayerPlan plan = boundary_linear_plan(16);
  plan.weight_codes.assign(plan.weight_codes.size(), 3);
  plan.has_act = true;
  plan.act_bits = 4;
  plan.act_clip = 1.0f;
  plan.requant = IntegerNetwork::from_plans({plan}).plan(0).requant;
  EXPECT_EQ(plan.requant.size(), 2u);
  return plan;
}

TEST(IntegerEngineTest, FinalizeRejectsChannelScaleOfTheWrongLength) {
  IntLayerPlan plan = boundary_linear_plan(16);
  plan.channel_scale.pop_back();
  const std::string message = from_plans_error({plan});
  EXPECT_NE(message.find("'fc_boundary'"), std::string::npos) << message;
  EXPECT_NE(message.find("1 channel_scale entries for 2 output channels"),
            std::string::npos)
      << message;
  // A conv indexes them by output channel the same way.
  IntLayerPlan conv;
  conv.kind = IntLayerPlan::Kind::kConv;
  conv.name = "conv_long";
  conv.in_channels = 1;
  conv.out_channels = 2;
  conv.weight_bits = 4;
  conv.weight_codes = {1, 2};
  conv.channel_scale = {1e-3f, 1e-3f, 1e-3f};
  conv.bias = {0.0f, 0.0f};
  EXPECT_NE(from_plans_error({conv}).find("'conv_long'"), std::string::npos);
}

TEST(IntegerEngineTest, FinalizeRejectsBiasOfTheWrongLength) {
  IntLayerPlan plan = boundary_linear_plan(16);
  plan.bias.push_back(0.0f);
  const std::string message = from_plans_error({plan});
  EXPECT_NE(message.find("'fc_boundary'"), std::string::npos) << message;
  EXPECT_NE(message.find("3 bias entries for 2 output channels"),
            std::string::npos)
      << message;
}

TEST(IntegerEngineTest, FinalizeRejectsRequantOfTheWrongLength) {
  IntLayerPlan plan = fused_linear_plan();
  EXPECT_EQ(from_plans_error({plan}), "");
  plan.requant.pop_back();
  const std::string message = from_plans_error({plan});
  EXPECT_NE(message.find("'fc_boundary'"), std::string::npos) << message;
  EXPECT_NE(message.find("1 requant entries for 2 output channels"),
            std::string::npos)
      << message;
}

TEST(IntegerEngineTest, FinalizeRejectsRequantShiftsOutsideOneToSixtyTwo) {
  for (std::int32_t shift : {0, -3, 63}) {
    IntLayerPlan plan = fused_linear_plan();
    plan.requant.back().shift = shift;
    const std::string message = from_plans_error({plan});
    EXPECT_NE(message.find("'fc_boundary'"), std::string::npos) << message;
    EXPECT_NE(message.find("requant shift " + std::to_string(shift) +
                           " on output channel 1"),
              std::string::npos)
        << message;
  }
  for (std::int32_t shift : {1, 62}) {
    IntLayerPlan plan = fused_linear_plan();
    plan.requant.back().shift = shift;
    EXPECT_EQ(from_plans_error({plan}), "") << "shift " << shift;
  }
}

TEST(IntegerEngineTest, CompileRejectsGridsAboveEightBits) {
  // Untrained models compile like trained ones; only the grids matter.
  models::ModelConfig mc;
  mc.num_classes = 5;
  mc.image_size = 8;
  mc.width_multiplier = 0.25f;
  quant::QuantFactory factory{.policy = quant::Policy::kMinMax};
  auto model =
      models::make_simple_cnn(mc, factory, quant::BitLadder({12, 9, 8}));
  const std::string first = model.registry().unit(0).name;
  for (std::size_t pos : {0, 1}) {
    model.registry().set_all(pos);
    const int bits = pos == 0 ? 12 : 9;
    const std::string message = compile_error(model);
    EXPECT_NE(message.find("'" + first + "'"), std::string::npos) << message;
    EXPECT_NE(message.find(std::to_string(bits) + "-bit weight grid"),
              std::string::npos)
        << message;
  }
  model.registry().set_all(2);
  EXPECT_EQ(compile_error(model), "");
  // 8-bit weights under a 12-bit activation grid.
  quant::QuantUnit& unit = model.registry().unit(1);
  ASSERT_NE(unit.act, nullptr);
  unit.act->set_bits(12);
  const std::string message = compile_error(model);
  EXPECT_NE(message.find("'" + unit.name + "'"), std::string::npos)
      << message;
  EXPECT_NE(message.find("12-bit activation grid"), std::string::npos)
      << message;
}

// ---- kernel selection / env override ----------------------------------------

/// RAII save/restore of $CCQ_IGEMM_KERNEL so override tests cannot leak
/// a forced kernel into the rest of the suite.
struct KernelEnvGuard {
  KernelEnvGuard() {
    const char* cur = std::getenv("CCQ_IGEMM_KERNEL");
    had = cur != nullptr;
    if (had) saved = cur;
  }
  ~KernelEnvGuard() {
    if (had) {
      setenv("CCQ_IGEMM_KERNEL", saved.c_str(), 1);
    } else {
      unsetenv("CCQ_IGEMM_KERNEL");
    }
  }
  bool had = false;
  std::string saved;
};

TEST(IntegerEngineTest, KernelEnvOverridePinsEveryEligibleLayer) {
  KernelEnvGuard guard;
  EngineSetup s = make_setup(quant::Policy::kMinMax, 1);
  const Tensor x = snap_input(s.val.all().images);

  setenv("CCQ_IGEMM_KERNEL", "vec16", 1);
  IntegerNetwork vec16_net = IntegerNetwork::compile(s.model);
  for (std::size_t l = 0; l < vec16_net.layer_count(); ++l) {
    const auto& plan = vec16_net.plan(l);
    if (plan.kind != IntLayerPlan::Kind::kConv &&
        plan.kind != IntLayerPlan::Kind::kLinear) {
      continue;
    }
    EXPECT_EQ(plan.igemm_kernel, IgemmKernel::kVec16) << plan.name;
    EXPECT_EQ(plan.panel.kernel, IgemmKernel::kVec16) << plan.name;
  }

  setenv("CCQ_IGEMM_KERNEL", "vec-packed", 1);
  IntegerNetwork packed_net = IntegerNetwork::compile(s.model);
  bool saw_packed = false;
  for (std::size_t l = 0; l < packed_net.layer_count(); ++l) {
    const auto& plan = packed_net.plan(l);
    if (plan.kind != IntLayerPlan::Kind::kConv &&
        plan.kind != IntLayerPlan::Kind::kLinear) {
      continue;
    }
    // Eligible layers honour the override; ineligible ones fall to vec16.
    if (plan.igemm_kernel == IgemmKernel::kVecPacked) {
      saw_packed = true;
    } else {
      EXPECT_FALSE(igemm_kernel_eligible(IgemmKernel::kVecPacked,
                                         plan.max_abs_code,
                                         plan.in_code_bound))
          << plan.name;
    }
  }
  EXPECT_EQ(saw_packed, igemm_packed_simd())
      << "toy 4-bit net: vec-packed must engage wherever the build has it";

  // The kernel choice must never change a single output bit.
  const Tensor a = vec16_net.forward(x);
  const Tensor b = packed_net.forward(x);
  ASSERT_EQ(a.shape(), b.shape());
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    ASSERT_EQ(a.data()[i], b.data()[i]) << "logit " << i;
  }
}

TEST(IntegerEngineTest, UnknownKernelOverrideNamesTheAvailableOnes) {
  KernelEnvGuard guard;
  EngineSetup s = make_setup(quant::Policy::kMinMax, 1);
  for (const char* unknown : {"tensor-core", "scalar"}) {
    setenv("CCQ_IGEMM_KERNEL", unknown, 1);
    try {
      IntegerNetwork::compile(s.model);
      FAIL() << "expected ccq::Error for " << unknown;
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(std::string("'") + unknown + "'"),
                std::string::npos)
          << what;
      EXPECT_NE(what.find("vec16, vec-packed, auto"), std::string::npos)
          << what;
    }
  }
}

// ---- encode_doubled envelope ------------------------------------------------

TEST(IntegerEngineTest, EncodeDoubledRejectsCodesOutsideTheEnvelope) {
  // A 2-bit grid with step 1 holds doubled codes in ±4; the value 3.0
  // encodes to 6 — the silent std::lround narrowing this used to hide.
  Tensor q({3});
  q.data()[0] = 1.0f;
  q.data()[1] = -2.0f;  // doubled code −4: exactly on the envelope, fine
  q.data()[2] = 3.0f;   // doubled code 6: out of envelope
  try {
    encode_doubled(q, 1.0f, 2, "conv1");
    FAIL() << "expected ccq::Error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("conv1"), std::string::npos);
    EXPECT_NE(what.find("envelope"), std::string::npos);
  }
  q.data()[2] = 2.0f;  // doubled code 4: back inside
  const auto codes = encode_doubled(q, 1.0f, 2, "conv1");
  EXPECT_EQ(codes, (std::vector<std::int32_t>{2, -4, 4}));
}

TEST(IntegerEngineTest, RejectsResidualTopologies) {
  models::ModelConfig mc;
  mc.num_classes = 5;
  mc.image_size = 8;
  mc.width_multiplier = 0.25f;
  quant::QuantFactory factory{.policy = quant::Policy::kMinMax};
  auto resnet = models::make_resnet20(mc, factory, quant::BitLadder({8, 4, 2}));
  resnet.registry().set_all(2);
  EXPECT_THROW(IntegerNetwork::compile(resnet), Error);
}

TEST(IntegerEngineTest, RejectsFullPrecisionLayers) {
  EngineSetup s = make_setup(quant::Policy::kMinMax, 1);
  s.model.registry().force_bits(0, 32);
  EXPECT_THROW(IntegerNetwork::compile(s.model), Error);
}

TEST(IntegerEngineTest, CheckInputValidatesGeometryAgainstPlans) {
  // Hand-built conv(3→4,k3,p1) → maxpool(2/2) → flatten → linear(64→5):
  // the 3×8×8 input it was planned for propagates cleanly, everything
  // else names the first inconsistent layer without running inference.
  std::vector<IntLayerPlan> plans(4);
  plans[0].kind = IntLayerPlan::Kind::kConv;
  plans[0].name = "conv0";
  plans[0].in_channels = 3;
  plans[0].out_channels = 4;
  plans[0].kernel = 3;
  plans[0].stride = 1;
  plans[0].pad = 1;
  plans[0].weight_codes.assign(4 * 3 * 3 * 3, 1);
  plans[0].weight_bits = 8;
  plans[0].channel_scale.assign(4, 0.01f);
  plans[0].bias.assign(4, 0.0f);
  plans[0].has_act = true;  // only a flatten may follow an unquantized layer
  plans[0].act_bits = 8;
  plans[0].act_clip = 1.0f;
  plans[1].kind = IntLayerPlan::Kind::kMaxPool;
  plans[1].name = "maxpool@1";
  plans[1].pool_kernel = 2;
  plans[1].pool_stride = 2;
  plans[2].kind = IntLayerPlan::Kind::kFlatten;
  plans[2].name = "flatten@2";
  plans[3].kind = IntLayerPlan::Kind::kLinear;
  plans[3].name = "fc";
  plans[3].in_features = 4 * 4 * 4;
  plans[3].out_features = 5;
  plans[3].weight_codes.assign(5 * 64, 1);
  plans[3].weight_bits = 8;
  plans[3].channel_scale.assign(5, 0.01f);
  plans[3].bias.assign(5, 0.0f);
  const IntegerNetwork net = IntegerNetwork::from_plans(std::move(plans));

  EXPECT_NO_THROW(net.check_input(3, 8, 8));

  const auto message_of = [&](std::size_t c, std::size_t h, std::size_t w) {
    try {
      net.check_input(c, h, w);
    } catch (const Error& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  // Wrong channel count names the conv.
  std::string msg = message_of(7, 8, 8);
  EXPECT_NE(msg.find("conv0"), std::string::npos) << msg;
  EXPECT_NE(msg.find("channels"), std::string::npos) << msg;
  // Spatial dims that shrink to the wrong flattened width name the fc.
  msg = message_of(3, 4, 4);
  EXPECT_NE(msg.find("fc"), std::string::npos) << msg;
  // Zero and wrap-inducing dims are rejected up front.
  EXPECT_NE(message_of(3, 0, 8).find("zero dimension"), std::string::npos);
  msg = message_of(std::size_t{1} << 40, std::size_t{1} << 40, 1);
  EXPECT_NE(msg.find("overflows"), std::string::npos) << msg;
  // Spatial input smaller than the pool window names the pool.
  msg = message_of(3, 1, 1);
  EXPECT_NE(msg.find("maxpool@1"), std::string::npos) << msg;
}

}  // namespace
}  // namespace ccq::hw
