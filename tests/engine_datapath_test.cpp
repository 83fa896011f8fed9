// Differential tests for the fused integer activation datapath.
//
// The contract: a fused forward — activation codes flowing layer to
// layer through requantizing igemm epilogues and integer pooling — is
// bit-identical to `forward_reference`'s naive int64 loops applying the
// same `requant_apply` spec, for every kernel variant, bit width, thread
// count and pooling mix.  Synthetic `from_plans` networks keep the
// sweep deterministic and let individual plan fields (activation bits,
// unquantized producers, off-grid average windows) be pinned exactly.
// Both datapaths share one layer walk, so a golden-codes test pins the
// walk's pooling glue to recorded output codes as well.
//
// Labelled `engine` and run on both CI legs next to the igemm
// differential suite.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "ccq/common/alloc.hpp"
#include "ccq/common/exec.hpp"
#include "ccq/common/rng.hpp"
#include "ccq/common/workspace.hpp"
#include "ccq/hw/integer_engine.hpp"

namespace ccq::hw {
namespace {

/// RAII save/restore of $CCQ_IGEMM_KERNEL (kernel sweeps must not leak
/// a forced kernel into the rest of the suite).
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

const ExecContext& ctx_for(std::size_t threads) {
  static const ExecContext one;  // serial
  static const ExecContext two(2);
  static const ExecContext four(4);
  switch (threads) {
    case 2: return two;
    case 4: return four;
    default: return one;
  }
}

/// Random conv plan: `bits`-bit weight codes, optional `act_bits` grid.
/// Scales are small and positive so make_requant always fits the layer.
IntLayerPlan conv_plan(Rng& rng, const std::string& name, std::size_t in_ch,
                       std::size_t out_ch, int bits, int act_bits,
                       std::size_t kernel = 3, std::size_t stride = 1,
                       std::size_t pad = 1) {
  IntLayerPlan plan;
  plan.kind = IntLayerPlan::Kind::kConv;
  plan.name = name;
  plan.in_channels = in_ch;
  plan.out_channels = out_ch;
  plan.kernel = kernel;
  plan.stride = stride;
  plan.pad = pad;
  plan.weight_bits = bits;
  const std::int32_t max_code = (1 << bits) - 1;  // doubled-code envelope
  plan.weight_codes.resize(out_ch * in_ch * kernel * kernel);
  for (auto& c : plan.weight_codes) {
    c = static_cast<std::int32_t>(rng.uniform_int(2 * max_code + 1)) -
        max_code;
  }
  plan.channel_scale.resize(out_ch);
  plan.bias.resize(out_ch);
  for (std::size_t c = 0; c < out_ch; ++c) {
    plan.channel_scale[c] = static_cast<float>(rng.uniform(1e-4, 2e-3));
    plan.bias[c] = static_cast<float>(rng.uniform(-0.2, 0.2));
  }
  if (act_bits < 32) {
    plan.has_act = true;
    plan.act_bits = act_bits;
    plan.act_clip = 1.0f;
  }
  return plan;
}

IntLayerPlan linear_plan(Rng& rng, const std::string& name, std::size_t in_f,
                         std::size_t out_f, int bits, int act_bits) {
  IntLayerPlan plan;
  plan.kind = IntLayerPlan::Kind::kLinear;
  plan.name = name;
  plan.in_features = in_f;
  plan.out_features = out_f;
  plan.weight_bits = bits;
  const std::int32_t max_code = (1 << bits) - 1;
  plan.weight_codes.resize(out_f * in_f);
  for (auto& c : plan.weight_codes) {
    c = static_cast<std::int32_t>(rng.uniform_int(2 * max_code + 1)) -
        max_code;
  }
  plan.channel_scale.resize(out_f);
  plan.bias.resize(out_f);
  for (std::size_t c = 0; c < out_f; ++c) {
    plan.channel_scale[c] = static_cast<float>(rng.uniform(1e-4, 2e-3));
    plan.bias[c] = static_cast<float>(rng.uniform(-0.2, 0.2));
  }
  if (act_bits < 32) {
    plan.has_act = true;
    plan.act_bits = act_bits;
    plan.act_clip = 1.0f;
  }
  return plan;
}

IntLayerPlan pool_plan(IntLayerPlan::Kind kind, const std::string& name,
                       std::size_t k = 2, std::size_t s = 2) {
  IntLayerPlan plan;
  plan.kind = kind;
  plan.name = name;
  plan.pool_kernel = k;
  plan.pool_stride = s;
  return plan;
}

/// conv → maxpool → conv → avgpool → gap → linear, everything fused
/// until the unquantized classifier head.
std::vector<IntLayerPlan> mixed_net(Rng& rng, int bits) {
  std::vector<IntLayerPlan> plans;
  plans.push_back(conv_plan(rng, "conv0", 3, 6, bits, bits));
  plans.push_back(pool_plan(IntLayerPlan::Kind::kMaxPool, "maxpool@1"));
  plans.push_back(conv_plan(rng, "conv1", 6, 8, bits, bits));
  plans.push_back(pool_plan(IntLayerPlan::Kind::kAvgPool, "avgpool@3"));
  plans.push_back(pool_plan(IntLayerPlan::Kind::kGlobalAvgPool, "gap@4"));
  plans.push_back(linear_plan(rng, "fc", 8, 4, bits, 32));
  return plans;
}

Tensor random_input(Rng& rng, std::size_t n, std::size_t c, std::size_t hw) {
  Tensor x({n, c, hw, hw});
  for (auto& v : x.data()) v = static_cast<float>(rng.uniform(0.0, 1.0));
  return x;
}

void expect_bit_identical(const IntegerNetwork& net, const Tensor& x,
                          const ExecContext& ctx, const std::string& where) {
  Workspace ws_fast, ws_ref;
  const Tensor fast = net.forward(x, ws_fast, ctx);
  const Tensor ref = net.forward_reference(x, ws_ref, ctx);
  ASSERT_EQ(fast.shape(), ref.shape()) << where;
  const auto fp = fast.data();
  const auto rp = ref.data();
  for (std::size_t i = 0; i < fp.size(); ++i) {
    ASSERT_EQ(fp[i], rp[i]) << where << " output " << i;
  }
}

// ---- fused vs reference sweep -----------------------------------------------

TEST(EngineDatapathTest, FusedMatchesReferenceAcrossKernelsBitsThreads) {
  KernelEnvGuard guard;
  for (int bits : {2, 3, 4, 6, 8}) {
    Rng rng(1000 + bits);
    const auto plans = mixed_net(rng, bits);
    const Tensor x = random_input(rng, 3, 3, 8);
    for (const char* kernel : {"vec16", "vec-packed"}) {
      // Without 8-bit-lane SIMD a vec-packed pin would just fall to vec16.
      if (!igemm_packed_simd() && std::string(kernel) == "vec-packed") {
        continue;
      }
      setenv("CCQ_IGEMM_KERNEL", kernel, 1);
      const IntegerNetwork net = IntegerNetwork::from_plans(plans);
      // The sweep must actually exercise the fused epilogue.
      ASSERT_TRUE(net.plan(0).requant_fused) << "conv0 must fuse";
      ASSERT_TRUE(net.plan(2).requant_fused) << "conv1 must fuse";
      ASSERT_FALSE(net.plan(5).requant_fused) << "fc head has no act grid";
      for (std::size_t threads : {1, 2, 4}) {
        expect_bit_identical(net, x, ctx_for(threads),
                             std::string("bits=") + std::to_string(bits) +
                                 " kernel=" + kernel +
                                 " threads=" + std::to_string(threads));
      }
    }
  }
}

std::string from_plans_error(std::vector<IntLayerPlan> plans) {
  try {
    IntegerNetwork::from_plans(std::move(plans));
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(EngineDatapathTest, LayerAfterUnquantizedProducerIsRejected) {
  // The engine has no float-activation datapath: a layer without a
  // quantized activation grid may only be followed by flattens, and
  // finalize names the first layer that breaks the rule.
  Rng rng(42);
  std::vector<IntLayerPlan> plans;
  plans.push_back(conv_plan(rng, "conv0", 3, 4, 4, 32));  // no act
  plans.push_back(conv_plan(rng, "conv1", 4, 5, 4, 4));
  plans.push_back(pool_plan(IntLayerPlan::Kind::kGlobalAvgPool, "gap@2"));
  plans.push_back(linear_plan(rng, "fc", 5, 3, 4, 32));
  std::string message = from_plans_error(plans);
  EXPECT_NE(message.find("'conv1'"), std::string::npos) << message;
  EXPECT_NE(message.find("'conv0'"), std::string::npos) << message;

  // Pooling after the unquantized producer is rejected the same way.
  plans.erase(plans.begin() + 1);
  message = from_plans_error(plans);
  EXPECT_NE(message.find("'gap@2'"), std::string::npos) << message;

  // A head followed only by flattens is the legal shape.
  std::vector<IntLayerPlan> head;
  head.push_back(conv_plan(rng, "conv0", 3, 4, 4, 4));
  head.push_back(pool_plan(IntLayerPlan::Kind::kFlatten, "flatten@1"));
  head.push_back(linear_plan(rng, "fc", 4 * 6 * 6, 3, 4, 32));
  head.push_back(pool_plan(IntLayerPlan::Kind::kFlatten, "flatten@3"));
  const IntegerNetwork net = IntegerNetwork::from_plans(head);
  const Tensor x = random_input(rng, 2, 3, 6);
  expect_bit_identical(net, x, ctx_for(2), "head then flatten");
}

TEST(EngineDatapathTest, RequantRefusalSnapsBackIntoCodes) {
  // conv1's first channel ratio is too large for a 31-bit multiplier,
  // so make_requant refuses the layer: it runs the float epilogue, its
  // quantized activation snaps the output back into codes, and conv2
  // fuses again.  Both datapaths must still agree bit for bit.
  KernelEnvGuard guard;
  unsetenv("CCQ_IGEMM_KERNEL");
  Rng rng(42);
  std::vector<IntLayerPlan> plans;
  plans.push_back(conv_plan(rng, "conv0", 3, 4, 4, 4));
  plans.push_back(conv_plan(rng, "conv1", 4, 5, 4, 4));
  plans.push_back(conv_plan(rng, "conv2", 5, 6, 4, 4));
  plans.push_back(pool_plan(IntLayerPlan::Kind::kGlobalAvgPool, "gap@3"));
  plans.push_back(linear_plan(rng, "fc", 6, 3, 4, 32));
  plans[1].channel_scale[0] = 1e10f;
  const IntegerNetwork net = IntegerNetwork::from_plans(plans);
  EXPECT_TRUE(net.plan(0).requant_fused);
  EXPECT_FALSE(net.plan(1).requant_fused);  // refused by make_requant
  EXPECT_TRUE(net.plan(2).requant_fused);   // back on the code grid
  const Tensor x = random_input(rng, 2, 3, 6);
  for (std::size_t threads : {1, 4}) {
    expect_bit_identical(net, x, ctx_for(threads),
                         "requant refusal threads=" + std::to_string(threads));
  }
}

TEST(EngineDatapathTest, WalkMatchesRecordedGoldenCodes) {
  // conv → maxpool → conv → avgpool → GAP over a 2×2 map → linear with
  // a 4-bit activation grid, so the output is still codes.  The codes
  // below were recorded from the build in which forward and
  // forward_reference were two separately written walks; the shared
  // walk must reproduce them through both backends.
  KernelEnvGuard guard;
  unsetenv("CCQ_IGEMM_KERNEL");
  Rng rng(2024);
  std::vector<IntLayerPlan> plans;
  plans.push_back(conv_plan(rng, "conv0", 3, 4, 4, 4));
  plans.push_back(pool_plan(IntLayerPlan::Kind::kMaxPool, "maxpool@1"));
  plans.push_back(conv_plan(rng, "conv1", 4, 6, 4, 4));
  plans.push_back(pool_plan(IntLayerPlan::Kind::kAvgPool, "avgpool@3"));
  plans.push_back(pool_plan(IntLayerPlan::Kind::kGlobalAvgPool, "gap@4"));
  plans.push_back(linear_plan(rng, "fc", 6, 5, 4, 4));
  // Wider scales and a positive bias spread the head's output codes.
  for (float& s : plans.back().channel_scale) s *= 4.0f;
  for (float& b : plans.back().bias) b += 0.3f;
  const IntegerNetwork net = IntegerNetwork::from_plans(plans);
  Tensor x = random_input(rng, 3, 3, 8);  // GAP sees a 2×2 map
  for (std::size_t i = 0; i < x.numel(); ++i) {
    x.data()[i] *= 0.3f + 0.35f * static_cast<float>(i / (3 * 8 * 8));
  }
  const std::vector<std::int32_t> golden{13, 9,  3, 0, 4,  //
                                         14, 10, 3, 0, 2,  //
                                         14, 10, 3, 0, 2};
  const float scale = 1.0f / 15.0f;  // act_clip 1 on a 4-bit grid
  const auto codes_of = [&](const Tensor& out) {
    std::vector<std::int32_t> codes;
    for (float v : out.data()) {
      codes.push_back(static_cast<std::int32_t>(std::lround(v / scale)));
    }
    return codes;
  };
  Workspace ws;
  const Tensor fast = net.forward(x, ws, ctx_for(1));
  ASSERT_EQ(fast.shape(), (Shape{3, 5}));
  EXPECT_EQ(codes_of(fast), golden);
  EXPECT_EQ(codes_of(net.forward_reference(x, ws, ctx_for(2))), golden);
}

// ---- integer pooling --------------------------------------------------------

TEST(EngineDatapathTest, AvgPoolRequantizesOffGridWindowsHalfUp) {
  // A 1×1 identity conv (weight code 2 ≈ weight 1 doubled, ratio ½·2)
  // maps input codes straight to activation codes, so the avgpool
  // windows below are exact integer means over known codes:
  //   window {0,1,1,3} → 5/4 = 1.25 → 1
  //   window {1,1,2,3} → 7/4 = 1.75 → 2
  //   window {1,2,0,3} → 6/4 = 1.5  → 2   (ties round half-up)
  //   window {2,2,4,4} → 12/4 = 3   → 3   (on-grid stays exact)
  IntLayerPlan conv;
  conv.kind = IntLayerPlan::Kind::kConv;
  conv.name = "identity";
  conv.in_channels = 1;
  conv.out_channels = 1;
  conv.kernel = 1;
  conv.stride = 1;
  conv.pad = 0;
  conv.weight_bits = 2;
  conv.weight_codes = {2};
  // acc = 2·code_in; requant ratio (channel_scale / out_scale) = ½ maps
  // it back to code_in: out_scale = 1/255 (act_clip 1 on 8 bits), so
  // channel_scale = ½·(1/255).
  conv.channel_scale = {0.5f / 255.0f};
  conv.bias = {0.0f};
  conv.has_act = true;
  conv.act_bits = 8;
  conv.act_clip = 1.0f;
  std::vector<IntLayerPlan> plans;
  plans.push_back(conv);
  plans.push_back(pool_plan(IntLayerPlan::Kind::kAvgPool, "avgpool@1"));
  const IntegerNetwork net = IntegerNetwork::from_plans(plans);
  ASSERT_TRUE(net.plan(0).requant_fused);

  const std::vector<std::int32_t> codes{0, 1, 1, 2,   // rows of a 4×4 image
                                        1, 3, 1, 3,   // (2×2 windows col-
                                        1, 2, 2, 2,   // umn-major in the
                                        0, 3, 4, 4};  // comment above)
  Tensor x({1, 1, 4, 4});
  for (std::size_t i = 0; i < codes.size(); ++i) {
    x.data()[i] = static_cast<float>(codes[i]) / 255.0f;
  }
  const Tensor out = net.forward(x);
  ASSERT_EQ(out.shape(), (Shape{1, 1, 2, 2}));
  const std::vector<std::int32_t> want{1, 2, 2, 3};
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_FLOAT_EQ(out.data()[i],
                    static_cast<float>(want[i]) / 255.0f)
        << "window " << i;
  }
  // And the reference path agrees bit for bit.
  expect_bit_identical(net, x, ctx_for(1), "avgpool off-grid");
}

// ---- input snap ---------------------------------------------------------------

TEST(EngineDatapathTest, InputSnapIsMonotoneOnHostilePixels) {
  // The same 1×1 identity conv as above passes the input codes straight
  // through, so the decoded output shows exactly what each pixel snapped
  // to.  Non-finite and huge pixels reach the engine over TCP (the codec
  // keeps their bits); each must get a defined code that is monotone in
  // the pixel: NaN and negatives 0, +Inf and anything past the grid 255.
  IntLayerPlan conv;
  conv.kind = IntLayerPlan::Kind::kConv;
  conv.name = "identity";
  conv.in_channels = 1;
  conv.out_channels = 1;
  conv.weight_bits = 2;
  conv.weight_codes = {2};
  conv.channel_scale = {0.5f / 255.0f};
  conv.bias = {0.0f};
  conv.has_act = true;
  conv.act_bits = 8;
  conv.act_clip = 1.0f;
  const IntegerNetwork net = IntegerNetwork::from_plans({conv});
  ASSERT_TRUE(net.plan(0).requant_fused);

  constexpr float kInf = std::numeric_limits<float>::infinity();
  std::vector<float> pixels{std::numeric_limits<float>::quiet_NaN(),
                            kInf,
                            -kInf,
                            -0.0f,
                            1e16f,
                            1e17f,
                            -1e17f,
                            1.0f,
                            std::nextafter(1.0f, 2.0f),
                            -1e-30f};
  std::vector<std::int32_t> want{0, 255, 0, 0, 255, 255, 0, 255, 255, 0};
  // Pixels one ulp either side of (and on) each code's half-point: the
  // snap rounds v / (1/255) half up, which exact double arithmetic on
  // the float quotient states independently of the engine's formula.
  const float scale = 1.0f / 255.0f;
  for (int code : {0, 1, 2, 7, 100, 127, 128, 200, 253, 254}) {
    const float mid = (static_cast<float>(code) + 0.5f) * scale;
    for (float v : {std::nextafter(mid, 0.0f), mid,
                    std::nextafter(mid, 2.0f)}) {
      const double q = static_cast<double>(v / scale);
      pixels.push_back(v);
      want.push_back(static_cast<std::int32_t>(
          std::clamp(std::floor(q + 0.5), 0.0, 255.0)));
    }
  }
  Tensor x({1, 1, 1, pixels.size()});
  std::copy(pixels.begin(), pixels.end(), x.data().begin());
  Workspace ws;
  const Tensor out = net.forward(x, ws, ctx_for(1));
  ASSERT_EQ(out.shape(), x.shape());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(out.data()[i], static_cast<float>(want[i]) * scale)
        << "pixel " << i << " = " << pixels[i];
  }
  expect_bit_identical(net, x, ctx_for(1), "hostile pixels");
}

// ---- lowering geometry ------------------------------------------------------

/// How a swept net ends: the channels-last codes leave through a global
/// average pool, through a flatten of the spatial map (reordered into
/// NCHW feature order), or directly as the output (decoded in NCHW
/// order), either as codes or as an unfused float head.
enum class Head { kGapLinear, kFlattenLinear, kBareCodes, kBareFloat };

TEST(EngineDatapathTest, LoweringGeometrySweepMatchesReference) {
  // Every swept conv before this one is 3×3, stride 1, pad 1.  Here the
  // conv under test runs every kernel/stride/pad combination on odd,
  // non-square maps, with channel counts putting the patch depth K·K·C
  // on either side of vec16's 16-lane and vec-packed's 32-lane row
  // padding, behind a 1×1 conv that feeds it codes on a 4-bit or an
  // 8-bit grid.  Five output channels leave a tail after the 4-wide
  // tiles.
  KernelEnvGuard guard;
  struct Map {
    std::size_t h, w;
  };
  const Map maps[] = {{7, 5}, {9, 4}};
  std::size_t configs = 0;
  for (std::size_t k : {1, 2, 3, 5}) {
    // Channel counts hitting K·K·C = 15, 16, 17, 31, 32, 33 where K·K
    // divides them, and depths straddling a lane multiple otherwise.
    const std::vector<std::size_t> channels =
        k == 1   ? std::vector<std::size_t>{15, 16, 17, 31, 32, 33}
        : k == 2 ? std::vector<std::size_t>{3, 4, 8}
        : k == 3 ? std::vector<std::size_t>{2, 4}
                 : std::vector<std::size_t>{1, 2};
    for (std::size_t stride : {1, 2, 3}) {
      for (std::size_t pad = 0; pad < std::min<std::size_t>(k, 3); ++pad) {
        for (const Map& map : maps) {
          if (map.h + 2 * pad < k || map.w + 2 * pad < k) continue;
          const std::size_t oh = (map.h + 2 * pad - k) / stride + 1;
          const std::size_t ow = (map.w + 2 * pad - k) / stride + 1;
          for (std::size_t c : channels) {
            for (int grid : {4, 8}) {
              for (Head head : {Head::kGapLinear, Head::kFlattenLinear,
                                Head::kBareCodes, Head::kBareFloat}) {
                Rng rng(7000 + configs++);
                std::vector<IntLayerPlan> plans;
                plans.push_back(conv_plan(rng, "pre", 3, c, 4, grid, 1, 1, 0));
                plans.push_back(conv_plan(rng, "conv", c, 5, 4,
                                          head == Head::kBareFloat ? 32 : grid,
                                          k, stride, pad));
                if (head == Head::kGapLinear) {
                  plans.push_back(
                      pool_plan(IntLayerPlan::Kind::kGlobalAvgPool, "gap@2"));
                  plans.push_back(linear_plan(rng, "fc", 5, 3, 4, 32));
                } else if (head == Head::kFlattenLinear) {
                  plans.push_back(
                      pool_plan(IntLayerPlan::Kind::kFlatten, "flatten@2"));
                  plans.push_back(
                      linear_plan(rng, "fc", 5 * oh * ow, 3, 4, 32));
                }
                Tensor x({3, 3, map.h, map.w});
                for (auto& v : x.data()) {
                  v = static_cast<float>(rng.uniform(0.0, 1.0));
                }
                Tensor x1({1, 3, map.h, map.w});  // the first sample
                std::copy_n(x.data().begin(), x1.numel(), x1.data().begin());
                for (const char* kernel : {"vec16", "vec-packed"}) {
                  setenv("CCQ_IGEMM_KERNEL", kernel, 1);
                  const IntegerNetwork net = IntegerNetwork::from_plans(plans);
                  // An ineligible pin falls down the ladder: that kernel
                  // already ran.
                  if (std::string(kernel) !=
                      igemm_kernel_str(net.plan(1).igemm_kernel)) {
                    continue;
                  }
                  const std::string where =
                      "k=" + std::to_string(k) + " s=" +
                      std::to_string(stride) + " p=" + std::to_string(pad) +
                      " map=" + std::to_string(map.h) + "x" +
                      std::to_string(map.w) + " c=" + std::to_string(c) +
                      " grid=" + std::to_string(grid) + " head=" +
                      std::to_string(static_cast<int>(head)) +
                      " kernel=" + kernel;
                  for (const Tensor* xb : {&x1, &x}) {
                    for (std::size_t threads : {1, 4}) {
                      expect_bit_identical(
                          net, *xb, ctx_for(threads),
                          where + " batch=" + std::to_string(xb->dim(0)) +
                              " threads=" + std::to_string(threads));
                      if (HasFatalFailure()) return;
                    }
                  }
                }
              }
            }
          }
        }
      }
    }
  }
  EXPECT_GT(configs, 500u);
}

// ---- allocation discipline --------------------------------------------------

TEST(EngineDatapathTest, WarmForwardMakesNoHeapAllocations) {
  if (!alloc_stats::enabled()) GTEST_SKIP() << "CCQ_COUNT_ALLOCS is off";
  KernelEnvGuard guard;
  unsetenv("CCQ_IGEMM_KERNEL");
  Rng rng(5);
  const IntegerNetwork net = IntegerNetwork::from_plans(mixed_net(rng, 4));
  const Tensor x = random_input(rng, 2, 3, 8);
  Workspace ws;
  const ExecContext& ctx = ctx_for(1);
  Tensor warmup = net.forward(x, ws, ctx);  // cold: populates the pools
  ws.recycle(std::move(warmup));  // output storage back to the pool too
  alloc_stats::reset();
  Tensor out = net.forward(x, ws, ctx);  // warm: pool hits only
  EXPECT_EQ(alloc_stats::count(), 0u)
      << alloc_stats::bytes() << " bytes allocated on a warm forward";
  EXPECT_GT(out.numel(), 0u);
  ws.recycle(std::move(out));
}

}  // namespace
}  // namespace ccq::hw
