// Tests for the weight-quantization hooks (DoReFa, WRPN, SAWB, LQ-Nets,
// LSQ, MinMax) and the policy factory.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <set>

#include "ccq/quant/policy.hpp"
#include "ccq/quant/uniform.hpp"
#include "ccq/quant/weight_hooks.hpp"

namespace ccq::quant {
namespace {

std::shared_ptr<WeightQuantHook> make_hook(Policy policy) {
  QuantFactory factory{.policy = policy};
  return factory.make_weight_hook("test");
}

std::size_t distinct_values(const Tensor& t) {
  std::set<float> values(t.data().begin(), t.data().end());
  return values.size();
}

/// Parameterised over (policy, bits): shared invariants for every policy.
class PolicyBitsTest
    : public ::testing::TestWithParam<std::tuple<Policy, int>> {};

TEST_P(PolicyBitsTest, CodomainBoundedByGrid) {
  auto [policy, bits] = GetParam();
  auto hook = make_hook(policy);
  hook->set_bits(bits);
  Rng rng(7);
  Tensor w = Tensor::randn({4000}, rng, 0.5f);
  const Tensor q = hook->quantize(w);
  // Symmetric k-bit grids have ≤ 2^k−1 values; DoReFa's unit grid has 2^k.
  EXPECT_LE(distinct_values(q), (1u << bits));
  EXPECT_GT(distinct_values(q), 1u);
}

TEST_P(PolicyBitsTest, QuantizationIsIdempotentOnItsOutput) {
  auto [policy, bits] = GetParam();
  auto hook = make_hook(policy);
  hook->set_bits(bits);
  Rng rng(8);
  Tensor w = Tensor::randn({1000}, rng, 0.5f);
  const Tensor q1 = hook->quantize(w);
  // Re-quantizing the already-quantized values must stay on a grid of the
  // same size (not necessarily the identical grid: data-dependent clips
  // re-fit).  This catches level-explosion bugs.
  const Tensor q2 = hook->quantize(q1);
  EXPECT_LE(distinct_values(q2), (1u << bits));
}

TEST_P(PolicyBitsTest, FullPrecisionIsPassThrough) {
  auto [policy, bits] = GetParam();
  (void)bits;
  auto hook = make_hook(policy);
  hook->set_bits(32);
  Rng rng(9);
  Tensor w = Tensor::randn({256}, rng);
  EXPECT_EQ(max_abs_diff(hook->quantize(w), w), 0.0f);
  Tensor g = Tensor::randn({256}, rng);
  EXPECT_EQ(max_abs_diff(hook->backward(w, g), g), 0.0f);
}

TEST_P(PolicyBitsTest, BackwardPreservesShapeAndFiniteness) {
  auto [policy, bits] = GetParam();
  auto hook = make_hook(policy);
  hook->set_bits(bits);
  Rng rng(10);
  Tensor w = Tensor::randn({300}, rng);
  hook->quantize(w);
  Tensor g = Tensor::randn({300}, rng);
  const Tensor gw = hook->backward(w, g);
  EXPECT_EQ(gw.shape(), w.shape());
  EXPECT_FALSE(gw.has_nonfinite());
}

TEST_P(PolicyBitsTest, QuantizationErrorBounded) {
  auto [policy, bits] = GetParam();
  auto hook = make_hook(policy);
  hook->set_bits(bits);
  Rng rng(11);
  Tensor w = Tensor::randn({2000}, rng, 0.3f);
  const Tensor q = hook->quantize(w);
  // Mean |w − q| must be well below the weight scale — a trivially broken
  // quantizer (all zeros, wrong scale) fails this.
  const Tensor diff = w - q;
  EXPECT_LT(diff.abs_mean(), 0.3f) << policy_str(policy) << " @" << bits;
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PolicyBitsTest,
    ::testing::Combine(::testing::Values(Policy::kDoReFa, Policy::kWrpn,
                                         Policy::kPact, Policy::kPactSawb,
                                         Policy::kLqNets, Policy::kLsq,
                                         Policy::kMinMax),
                       ::testing::Values(2, 3, 4, 8)),
    [](const testing::TestParamInfo<std::tuple<Policy, int>>& info) {
      std::string name = policy_str(std::get<0>(info.param)) +
                         std::to_string(std::get<1>(info.param));
      for (auto& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

// ---- DoReFa ----------------------------------------------------------------

TEST(DoReFaTest, OutputInUnitRange) {
  DoReFaWeightHook hook;
  hook.set_bits(3);
  Rng rng(1);
  Tensor w = Tensor::randn({1000}, rng, 2.0f);
  const Tensor q = hook.quantize(w);
  EXPECT_LE(q.max(), 1.0f + 1e-6f);
  EXPECT_GE(q.min(), -1.0f - 1e-6f);
}

TEST(DoReFaTest, MaxMagnitudeWeightHitsGridEdge) {
  // Scale-preserving mode: the grid edge is ±max|tanh(w)|.
  DoReFaWeightHook hook;
  hook.set_bits(2);
  Tensor w = Tensor::from({-3.0f, 0.1f, 3.0f});
  const Tensor q = hook.quantize(w);
  const float edge = std::tanh(3.0f);
  EXPECT_NEAR(q(2), edge, 1e-6f);
  EXPECT_NEAR(q(0), -edge, 1e-6f);
}

TEST(DoReFaTest, LegacyModeNormalisesToUnitRange) {
  DoReFaWeightHook hook(/*scale_preserving=*/false);
  hook.set_bits(2);
  Tensor w = Tensor::from({-3.0f, 0.1f, 3.0f});
  const Tensor q = hook.quantize(w);
  EXPECT_NEAR(q(2), 1.0f, 1e-6f);
  EXPECT_NEAR(q(0), -1.0f, 1e-6f);
}

TEST(DoReFaTest, EightBitSnapIsNearLossless) {
  // The property the CCQ initial step depends on: quantizing a pretrained
  // layer to 8 bits must barely move the weights.
  DoReFaWeightHook hook;
  hook.set_bits(8);
  Rng rng(11);
  Tensor w = Tensor::randn({2000}, rng, 0.1f);
  const Tensor q = hook.quantize(w);
  const Tensor diff = w - q;
  EXPECT_LT(diff.abs_mean(), 0.02f * w.abs_mean() + 1e-3f);
}

TEST(DoReFaTest, AllZeroWeightsStayZero) {
  DoReFaWeightHook hook;
  hook.set_bits(2);
  Tensor w({16});
  const Tensor q = hook.quantize(w);
  EXPECT_EQ(q.max(), 0.0f);
  EXPECT_EQ(q.min(), 0.0f);
}

TEST(DoReFaTest, MatchesTheScalarUnitQuantizerBitForBit) {
  // quantize_into runs the 4-lane quantize_unsigned at clip 1; it must
  // leave exactly the bytes of the per-weight quantize_unit formula, in
  // both output scalings, at every width and across vector tails.
  for (const bool scale_preserving : {true, false}) {
    for (const int bits : {2, 3, 4, 8, 16, 24, 31}) {
      for (const std::size_t n : {1u, 3u, 4u, 5u, 4099u}) {
        DoReFaWeightHook hook(scale_preserving);
        hook.set_bits(bits);
        Rng rng(static_cast<std::uint64_t>(bits) * 131 + n);
        Tensor w = Tensor::randn({n}, rng, 0.5f);
        w.data()[0] = 4.0f;  // tanh saturates: a unit at the grid edge
        if (n > 2) w.data()[2] = -0.0f;
        const Tensor q = hook.quantize(w);

        float max_tanh = 0.0f;
        for (float v : w.data()) {
          max_tanh = std::max(max_tanh, std::fabs(std::tanh(v)));
        }
        const float out_scale = scale_preserving ? max_tanh : 1.0f;
        Tensor expected(w.shape());
        for (std::size_t i = 0; i < n; ++i) {
          const float unit = std::tanh(w.data()[i]) / (2.0f * max_tanh) + 0.5f;
          expected.data()[i] =
              out_scale * (2.0f * quantize_unit(unit, bits) - 1.0f);
        }
        EXPECT_EQ(std::memcmp(q.data().data(), expected.data().data(),
                              n * sizeof(float)),
                  0)
            << "bits " << bits << ", n " << n << ", scale_preserving "
            << scale_preserving;
      }
    }
  }
}

// ---- WRPN ------------------------------------------------------------------

TEST(WrpnTest, ClipsToUnitInterval) {
  WrpnWeightHook hook;
  hook.set_bits(4);
  Tensor w = Tensor::from({-2.0f, 0.5f, 2.0f});
  const Tensor q = hook.quantize(w);
  EXPECT_FLOAT_EQ(q(0), -1.0f);
  EXPECT_FLOAT_EQ(q(2), 1.0f);
}

TEST(WrpnTest, SteZerosSaturatedGradients) {
  WrpnWeightHook hook;
  hook.set_bits(4);
  Tensor w = Tensor::from({-2.0f, 0.5f, 2.0f});
  hook.quantize(w);
  const Tensor g = hook.backward(w, Tensor({3}, 1.0f));
  EXPECT_EQ(g(0), 0.0f);
  EXPECT_EQ(g(1), 1.0f);
  EXPECT_EQ(g(2), 0.0f);
}

// ---- SAWB ------------------------------------------------------------------

TEST(SawbTest, ClipIsPositiveForGaussianWeights) {
  Rng rng(2);
  Tensor w = Tensor::randn({5000}, rng, 0.1f);
  for (int bits : {2, 3, 4, 8}) {
    EXPECT_GT(SawbWeightHook::clip_for(w, bits), 0.0f) << bits;
  }
}

TEST(SawbTest, BeatsMinMaxMseAtLowBits) {
  // The statistics-aware clip should give lower quantization MSE than the
  // naive max-|w| clip for heavy-ish tailed data at 2 bits — that is its
  // entire reason to exist.
  Rng rng(3);
  Tensor w({8000});
  for (auto& v : w.data()) {
    // Laplace-ish: product of exponential magnitude and random sign.
    const double u = rng.uniform(1e-6, 1.0);
    v = static_cast<float>((rng.uniform() < 0.5 ? -1 : 1) * -std::log(u) * 0.1);
  }
  const float sawb_clip = SawbWeightHook::clip_for(w, 2);
  const float minmax_clip = std::max(w.max(), -w.min());
  EXPECT_LT(quantization_mse(w, 2, sawb_clip),
            quantization_mse(w, 2, minmax_clip));
}

TEST(SawbTest, DegenerateWeightsFallBack) {
  Tensor w({64}, 0.5f);  // constant weights → √E[w²] == E[|w|]
  const float clip = SawbWeightHook::clip_for(w, 2);
  EXPECT_GT(clip, 0.0f);
}

// ---- LQ-Nets ---------------------------------------------------------------

TEST(LqNetsTest, FitReducesMseVersusInitialGuess) {
  Rng rng(4);
  Tensor w = Tensor::randn({4000}, rng, 0.25f);
  const int bits = 3;
  const float n = symmetric_levels(bits);
  const float s0 = 2.0f * w.abs_mean() / n;  // the initial heuristic
  const float s_fit = LqNetsWeightHook::fit_scale(w, bits, 10);
  EXPECT_LE(quantization_mse(w, bits, s_fit * n),
            quantization_mse(w, bits, s0 * n) + 1e-8f);
}

TEST(LqNetsTest, ScaleRecoversPlantedGrid) {
  // Weights already on a 3-bit grid with step 0.2 → the fit should find
  // a scale very close to 0.2 (zero reconstruction error).
  const int bits = 3;
  Rng rng(5);
  Tensor w({500});
  const float n = symmetric_levels(bits);
  for (auto& v : w.data()) {
    v = 0.2f * static_cast<float>(
                   static_cast<long>(rng.uniform_int(2 * static_cast<std::uint64_t>(n) + 1)) -
                   static_cast<long>(n));
  }
  const float s = LqNetsWeightHook::fit_scale(w, bits, 20);
  EXPECT_NEAR(s, 0.2f, 0.02f);
}

// ---- LSQ -------------------------------------------------------------------

TEST(LsqTest, StepInitialisesFromStatistics) {
  LsqWeightHook hook("t");
  hook.set_bits(4);
  Rng rng(6);
  Tensor w = Tensor::randn({1000}, rng, 0.5f);
  hook.quantize(w);
  const float expected =
      2.0f * w.abs_mean() / std::sqrt(symmetric_levels(4));
  EXPECT_NEAR(hook.step(), expected, 1e-5f);
}

TEST(LsqTest, ExposesLearnableParameter) {
  LsqWeightHook hook("t");
  std::vector<nn::Parameter*> params;
  hook.collect_parameters(params);
  ASSERT_EQ(params.size(), 1u);
  EXPECT_EQ(params[0]->name, "t.step");
  EXPECT_EQ(params[0]->weight_decay_scale, 0.0f);
}

TEST(LsqTest, StepGradientMatchesPublishedFormula) {
  // Esser et al. (2019): ∂q/∂s = −Q_max (z ≤ −Q_max), +Q_max (z ≥ Q_max),
  // round(z) − z otherwise (the STE term included — note this is *not*
  // the a.e. derivative of the piecewise-constant quantizer, so a numeric
  // finite-difference comparison would be wrong by construction).
  LsqWeightHook hook("t");
  const int bits = 3;
  hook.set_bits(bits);
  Rng rng(7);
  Tensor warmup = Tensor::randn({64}, rng, 0.5f);
  hook.quantize(warmup);  // initialise step
  const float s0 = hook.step();
  const float n = symmetric_levels(bits);

  Tensor w({5});
  w.at(0) = 0.25f * s0;          // z = 0.25 → grad term −0.25
  w.at(1) = 1.6f * s0;           // z = 1.6  → round−z = 0.4
  w.at(2) = -2.3f * s0;          // z = −2.3 → round−z = 0.3
  w.at(3) = (n + 1.0f) * s0;     // saturated high → +n
  w.at(4) = -(n + 1.0f) * s0;    // saturated low → −n

  Tensor coeff = Tensor::from({1.0f, 2.0f, -1.0f, 0.5f, 0.5f});
  std::vector<nn::Parameter*> params;
  hook.collect_parameters(params);
  nn::Parameter& step = *params[0];
  step.zero_grad();
  hook.quantize(w);
  hook.backward(w, coeff);

  const double expected = 1.0 * -0.25 + 2.0 * 0.4 + -1.0 * 0.3 +
                          0.5 * n + 0.5 * -n;
  EXPECT_NEAR(step.grad.at(0), expected, 1e-4);

  // Saturated elements must not leak gradient into the weights.
  Tensor g = hook.backward(w, Tensor({5}, 1.0f));
  EXPECT_EQ(g(3), 0.0f);
  EXPECT_EQ(g(4), 0.0f);
  EXPECT_EQ(g(0), 1.0f);
}

// ---- MinMax ----------------------------------------------------------------

TEST(MinMaxTest, AutoClipTracksExtremes) {
  MinMaxWeightHook hook;
  hook.set_bits(4);
  Tensor w = Tensor::from({-0.3f, 0.9f, 0.1f});
  hook.quantize(w);
  EXPECT_FLOAT_EQ(hook.clip(), 0.9f);
}

TEST(MinMaxTest, ManualClipSticks) {
  MinMaxWeightHook hook;
  hook.set_bits(4);
  hook.set_clip(0.5f);
  Tensor w = Tensor::from({-3.0f, 3.0f});
  const Tensor q = hook.quantize(w);
  EXPECT_FLOAT_EQ(q(0), -0.5f);
  EXPECT_FLOAT_EQ(q(1), 0.5f);
  EXPECT_THROW(hook.set_clip(-1.0f), Error);
}

// ---- factory ---------------------------------------------------------------

TEST(PolicyTest, RoundTripNames) {
  for (Policy p : {Policy::kDoReFa, Policy::kWrpn, Policy::kPact,
                   Policy::kPactSawb, Policy::kLqNets, Policy::kLsq,
                   Policy::kMinMax}) {
    EXPECT_EQ(policy_from_str(policy_str(p)), p);
  }
  EXPECT_THROW(policy_from_str("nonsense"), Error);
}

TEST(PolicyTest, FactoryActivationsMatchPolicyFamily) {
  QuantFactory pact{.policy = Policy::kPact};
  auto act = pact.make_activation("a");
  EXPECT_EQ(act->type_name(), "PactActivation");
  QuantFactory dorefa{.policy = Policy::kDoReFa};
  EXPECT_EQ(dorefa.make_activation("a")->type_name(), "ClipActQuant");
}

TEST(PolicyTest, BitsRangeIsValidated) {
  DoReFaWeightHook hook;
  EXPECT_THROW(hook.set_bits(1), Error);
  EXPECT_THROW(hook.set_bits(33), Error);
  EXPECT_NO_THROW(hook.set_bits(2));
  EXPECT_NO_THROW(hook.set_bits(32));
}

}  // namespace
}  // namespace ccq::quant
