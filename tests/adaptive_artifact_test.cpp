// Multi-point (CCQA v3) artifact tests: building serving rungs from a
// controller rung trail, the headline reconstruction property (every
// rung of a multi-point artifact is bit-identical — codes, requant
// parameters and served outputs — to a single-point export of the same
// configuration, across kernels × thread counts), the size budget,
// version negotiation at every truncation point, and trail persistence
// through snapshots and controller state.
//
// Labelled `adaptive` and run on both CI legs plus the TSan quick tier.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "ccq/common/error.hpp"
#include "ccq/common/exec.hpp"
#include "ccq/common/workspace.hpp"
#include "ccq/core/controller.hpp"
#include "ccq/core/snapshot.hpp"
#include "ccq/core/trail.hpp"
#include "ccq/data/synthetic.hpp"
#include "ccq/models/simple.hpp"
#include "ccq/serve/artifact.hpp"

namespace ccq::serve {
namespace {

namespace fs = std::filesystem;

std::string temp_path(const std::string& name) {
  return (fs::temp_directory_path() / name).string();
}

Tensor make_inputs(std::size_t n, std::size_t channels = 3,
                   std::size_t hw = 8) {
  Tensor x({n, channels, hw, hw});
  auto data = x.data();
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<float>((i * 2654435761u >> 8) & 255u) / 255.0f;
  }
  return x;
}

/// A small quantized CNN with a mixed 8/4/2 allocation (layer i at
/// ladder position i mod 3), calibrated with one training-mode forward.
/// Same recipe as serve_test.cpp.
models::QuantModel make_mixed_model() {
  models::ModelConfig mc;
  mc.num_classes = 5;
  mc.image_size = 8;
  mc.width_multiplier = 0.25f;
  quant::QuantFactory factory{.policy = quant::Policy::kMinMax};
  auto model =
      models::make_simple_cnn(mc, factory, quant::BitLadder({8, 4, 2}));
  quant::LayerRegistry& registry = model.registry();
  for (std::size_t i = 0; i < registry.size(); ++i) {
    registry.set_ladder_pos(i, i % 3);
  }
  Workspace ws;
  model.set_training(true);
  model.forward(make_inputs(16), ws);
  model.set_training(false);
  return model;
}

/// The descent that would have produced make_mixed_model's allocation:
/// starting from everything at ladder position 0, each layer with a
/// non-zero final position was re-binned once, in layer order.
core::RungTrail trail_for(const models::QuantModel& model) {
  const quant::LayerRegistry& registry = model.registry();
  core::RungTrail trail;
  for (std::size_t i = 0; i < registry.size(); ++i) {
    if (registry.unit(i).ladder_pos == 0) continue;
    core::TrailStep step;
    step.layer = i;
    step.ladder_pos = registry.unit(i).ladder_pos;
    step.val_acc = 0.9f - 0.05f * static_cast<float>(trail.size());
    trail.push_back(step);
  }
  return trail;
}

/// Ladder positions of trail configuration t (all-0 plus the first t
/// steps) — the same replay build_multipoint performs.
std::vector<std::size_t> config_at(const quant::LayerRegistry& registry,
                                   const core::RungTrail& trail,
                                   std::size_t t) {
  std::vector<std::size_t> pos(registry.size(), 0);
  for (std::size_t s = 0; s < t; ++s) pos[trail[s].layer] = trail[s].ladder_pos;
  return pos;
}

void apply_config(quant::LayerRegistry& registry,
                  const std::vector<std::size_t>& pos) {
  for (std::size_t i = 0; i < registry.size(); ++i) {
    if (registry.unit(i).ladder_pos != pos[i]) {
      registry.set_ladder_pos(i, pos[i]);
    }
  }
}

float max_diff(const Tensor& a, const Tensor& b) {
  EXPECT_EQ(a.shape(), b.shape());
  float diff = 0.0f;
  const auto da = a.data();
  const auto db = b.data();
  for (std::size_t i = 0; i < da.size(); ++i) {
    diff = std::max(diff, std::abs(da[i] - db[i]));
  }
  return diff;
}

std::string error_message(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

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

// ---- multi-point build -----------------------------------------------------

TEST(MultiPointBuildTest, BuildsRequestedRungsAndRestoresTheModel) {
  auto model = make_mixed_model();
  const core::RungTrail trail = trail_for(model);
  ASSERT_GE(trail.size(), 2u);
  std::vector<std::size_t> before;
  for (std::size_t i = 0; i < model.registry().size(); ++i) {
    before.push_back(model.registry().unit(i).ladder_pos);
  }

  // A loose budget keeps the candidates at full span, so rung 0 is the
  // trail's very first configuration (everything at ladder position 0).
  MultiPointOptions options;
  options.size_budget = 4.0;
  const hw::IntegerNetwork net = build_multipoint(model, trail, options);
  EXPECT_EQ(net.rung_count(), 3u);
  // The base rung is the final configuration; rung 0 the earliest.
  EXPECT_EQ(net.rung_info(net.rung_count() - 1).trail_step, -1);
  EXPECT_EQ(net.rung_info(0).trail_step, 0);
  // Rung 0 is configuration 0: every competing layer at ladder position
  // 0, i.e. 8-bit weights on every conv/linear layer.
  for (std::size_t i = 0; i < net.layer_count(); ++i) {
    const hw::IntLayerPlan& plan = net.plan(0, i);
    if (plan.kind == hw::IntLayerPlan::Kind::kConv ||
        plan.kind == hw::IntLayerPlan::Kind::kLinear) {
      EXPECT_EQ(plan.weight_bits, 8) << plan.name;
    }
  }
  // The registry is back where it was.
  for (std::size_t i = 0; i < model.registry().size(); ++i) {
    EXPECT_EQ(model.registry().unit(i).ladder_pos, before[i]);
  }
}

TEST(MultiPointBuildTest, EmptyTrailThrowsWithRegenerationHint) {
  auto model = make_mixed_model();
  const std::string message =
      error_message([&] { build_multipoint(model, {}, {}); });
  EXPECT_NE(message.find("rung trail"), std::string::npos) << message;
}

TEST(MultiPointBuildTest, TrailDisagreeingWithTheModelThrows) {
  auto model = make_mixed_model();
  core::RungTrail trail = trail_for(model);
  trail.pop_back();  // final config no longer matches the model
  const std::string message =
      error_message([&] { build_multipoint(model, trail, {}); });
  EXPECT_NE(message.find("disagree"), std::string::npos) << message;
}

// ---- the reconstruction property -------------------------------------------

// Every rung rebuilt from a multi-point artifact must be bit-identical
// to a single-point export of the same configuration: same codes, same
// requant parameters, same served outputs — for every kernel variant and
// thread count.  This is what makes the adaptive controller's rung
// switches accuracy-priced rather than numerically novel.
TEST(AdaptiveArtifactTest, EveryRungMatchesItsSinglePointExport) {
  KernelEnvGuard guard;
  auto model = make_mixed_model();
  const core::RungTrail trail = trail_for(model);
  const std::string multi_path = temp_path("ccq_adaptive_multi.ccqa");
  export_artifact(build_multipoint(model, trail, {}), multi_path);

  // Single-point exports of each rung's configuration, written while
  // the registry sits at that configuration (ending at the final one,
  // which restores the model).
  const hw::IntegerNetwork probe = load_artifact(multi_path);
  std::vector<std::string> single_paths;
  for (std::size_t r = 0; r < probe.rung_count(); ++r) {
    const std::int32_t t = probe.rung_info(r).trail_step;
    apply_config(model.registry(),
                 config_at(model.registry(), trail,
                           t < 0 ? trail.size() : static_cast<std::size_t>(t)));
    single_paths.push_back(temp_path("ccq_adaptive_single_" +
                                     std::to_string(r) + ".ccqa"));
    export_artifact(model, single_paths.back());
  }

  const Tensor x = make_inputs(4);
  for (const char* kernel : {"vec16", "vec-packed"}) {
    // Without 8-bit-lane SIMD a vec-packed pin would just fall to vec16.
    if (!igemm_packed_simd() && std::string(kernel) == "vec-packed") continue;
    setenv("CCQ_IGEMM_KERNEL", kernel, 1);
    const hw::IntegerNetwork multi = load_artifact(multi_path);
    ASSERT_EQ(multi.rung_count(), single_paths.size());
    for (std::size_t r = 0; r < multi.rung_count(); ++r) {
      const hw::IntegerNetwork single = load_artifact(single_paths[r]);
      ASSERT_EQ(single.layer_count(), multi.layer_count());
      for (std::size_t i = 0; i < multi.layer_count(); ++i) {
        const hw::IntLayerPlan& m = multi.plan(r, i);
        const hw::IntLayerPlan& s = single.plan(i);
        EXPECT_EQ(m.weight_bits, s.weight_bits) << m.name;
        EXPECT_EQ(m.weight_codes, s.weight_codes) << m.name;
        EXPECT_EQ(m.channel_scale, s.channel_scale) << m.name;
        EXPECT_EQ(m.bias, s.bias) << m.name;
        EXPECT_EQ(m.requant_fused, s.requant_fused) << m.name;
        ASSERT_EQ(m.requant.size(), s.requant.size()) << m.name;
        for (std::size_t c = 0; c < m.requant.size(); ++c) {
          EXPECT_EQ(m.requant[c].multiplier, s.requant[c].multiplier);
          EXPECT_EQ(m.requant[c].shift, s.requant[c].shift);
          EXPECT_EQ(m.requant[c].bias, s.requant[c].bias);
        }
      }
      for (const std::size_t threads : {1u, 2u, 4u}) {
        Workspace ws;
        const ExecContext ctx(threads);
        const Tensor from_multi = multi.forward(x, ws, ctx, r);
        const Tensor from_single = single.forward(x, ws, ctx);
        const Tensor oracle = multi.forward_reference(x, ws, ctx, r);
        EXPECT_EQ(max_diff(from_multi, from_single), 0.0f)
            << kernel << " rung " << r << " threads " << threads;
        EXPECT_EQ(max_diff(from_multi, oracle), 0.0f)
            << kernel << " rung " << r << " threads " << threads;
      }
    }
  }
}

TEST(AdaptiveArtifactTest, MeetsTheSizeBudget) {
  auto model = make_mixed_model();
  const core::RungTrail trail = trail_for(model);
  const std::string multi_path = temp_path("ccq_adaptive_budget.ccqa");
  const std::string single_path = temp_path("ccq_adaptive_budget_single.ccqa");
  const MultiPointOptions options;  // 3 rungs, 1.5x
  export_artifact(build_multipoint(model, trail, options), multi_path);
  export_artifact(model, single_path);  // final configuration
  const auto multi_bytes = fs::file_size(multi_path);
  const auto single_bytes = fs::file_size(single_path);
  EXPECT_LE(static_cast<double>(multi_bytes),
            options.size_budget * static_cast<double>(single_bytes))
      << multi_bytes << " vs " << single_bytes;
  // And it genuinely carries 3 rungs at that size.
  EXPECT_EQ(load_artifact(multi_path).rung_count(), 3u);
}

TEST(AdaptiveArtifactTest, UnmeetableBudgetThrowsNamingTheBudget) {
  auto model = make_mixed_model();
  const core::RungTrail trail = trail_for(model);
  MultiPointOptions options;
  options.size_budget = 1.0;  // no headroom for any delta
  const std::string message =
      error_message([&] { build_multipoint(model, trail, options); });
  EXPECT_NE(message.find("size budget"), std::string::npos) << message;
}

// ---- inspection ------------------------------------------------------------

TEST(AdaptiveArtifactTest, InspectDescribesSingleAndMultiPointExports) {
  auto model = make_mixed_model();
  const std::string single_path = temp_path("ccq_adaptive_inspect_1.ccqa");
  const std::string multi_path = temp_path("ccq_adaptive_inspect_3.ccqa");
  export_artifact(model, single_path);
  const core::RungTrail trail = trail_for(model);
  export_artifact(build_multipoint(model, trail, {}), multi_path);

  // A single-point export is a version-3 artifact with one rung.
  const ArtifactInfo single = inspect_artifact(single_path);
  EXPECT_EQ(single.version, 3u);
  EXPECT_EQ(single.rung_count, 1u);
  ASSERT_EQ(single.rungs.size(), 1u);
  EXPECT_EQ(single.rungs.front().trail_step, -1);
  EXPECT_EQ(single.file_bytes, fs::file_size(single_path));
  EXPECT_GT(single.float_bytes, single.file_bytes);  // packing compresses

  const ArtifactInfo multi = inspect_artifact(multi_path);
  EXPECT_EQ(multi.version, 3u);
  EXPECT_EQ(multi.rung_count, 3u);
  EXPECT_EQ(multi.layer_count, single.layer_count);
  EXPECT_EQ(multi.float_bytes, single.float_bytes);  // rung-invariant
  ASSERT_EQ(multi.rungs.size(), 3u);
  EXPECT_EQ(multi.rungs.back().trail_step, -1);
  for (const ArtifactLayerInfo& layer : multi.layers) {
    EXPECT_EQ(layer.weight_bits.size(), 3u) << layer.name;
    EXPECT_EQ(layer.act_bits.size(), 3u) << layer.name;
    EXPECT_EQ(layer.requant_fused.size(), 3u) << layer.name;
  }
}

// ---- version negotiation and truncation ------------------------------------

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(is), {});
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(AdaptiveArtifactTest, UnsupportedVersionsFailBeforeThePayload) {
  auto model = make_mixed_model();
  const std::string path = temp_path("ccq_adaptive_version.ccqa");
  export_artifact(model, path);
  const std::string original = read_file(path);

  // Versions below and above the supported one; v2 is the retired
  // single-point format, v4 exercises the forward direction (a newer
  // exporter meeting this reader).
  for (const std::uint32_t bad : {1u, 2u, 4u, 99u}) {
    std::string bytes = original;
    std::memcpy(bytes.data() + 4, &bad, sizeof(bad));
    // Corrupt the payload too: negotiation must fire before any payload
    // byte is parsed, so the corruption must never be reached.
    bytes[bytes.size() - 1] = static_cast<char>(~bytes[bytes.size() - 1]);
    write_file(path, bytes);
    const std::string message = error_message([&] { load_artifact(path); });
    EXPECT_NE(message.find("version " + std::to_string(bad)),
              std::string::npos)
        << message;
    EXPECT_NE(message.find("reads version 3"), std::string::npos) << message;
    EXPECT_NE(message.find("regenerate"), std::string::npos) << message;
    EXPECT_NE(message.find("ccq export"), std::string::npos) << message;
    // inspect negotiates identically.
    EXPECT_NE(error_message([&] { inspect_artifact(path); })
                  .find("version " + std::to_string(bad)),
              std::string::npos);
  }
}

TEST(AdaptiveArtifactTest, TruncationAtEveryPointIsDiagnosed) {
  auto model = make_mixed_model();
  const core::RungTrail trail = trail_for(model);
  const std::string path = temp_path("ccq_adaptive_truncation.ccqa");
  export_artifact(build_multipoint(model, trail, {}), path);
  const std::string original = read_file(path);

  // Every header truncation point (the header is 28 bytes), then a
  // sweep of payload truncations including one-byte-short.
  std::vector<std::size_t> cuts;
  for (std::size_t len = 0; len < 28; ++len) cuts.push_back(len);
  for (std::size_t len = 28; len < original.size();
       len += std::max<std::size_t>(1, (original.size() - 28) / 16)) {
    cuts.push_back(len);
  }
  cuts.push_back(original.size() - 1);
  for (const std::size_t len : cuts) {
    write_file(path, original.substr(0, len));
    const std::string message = error_message([&] { load_artifact(path); });
    EXPECT_FALSE(message.empty()) << "no error at " << len << " bytes";
    EXPECT_NE(message.find(path), std::string::npos) << message;
  }

  // Trailing garbage after a well-formed payload is rejected too.
  write_file(path, original + std::string(3, 'x'));
  EXPECT_NE(error_message([&] { load_artifact(path); }).find("truncated"),
            std::string::npos);
}

// ---- trail persistence -----------------------------------------------------

TEST(TrailPersistenceTest, SnapshotRoundTripsTheTrail) {
  auto model = make_mixed_model();
  const core::RungTrail trail = trail_for(model);
  const std::string path = temp_path("ccq_adaptive_trail_snapshot.bin");
  core::save_snapshot(model, path, trail);
  EXPECT_EQ(core::load_trail(path), trail);
  // The reserved record must not break ordinary snapshot loading.
  auto reload = make_mixed_model();
  EXPECT_TRUE(core::load_snapshot(reload, path));

  // Trail-less snapshots (old writers) read back as an empty trail.
  core::save_snapshot(model, path);
  EXPECT_TRUE(core::load_trail(path).empty());
}

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

  core::CcqConfig config;
  config.probes_per_step = 2;
  config.probe_samples = 24;
  config.max_recovery_epochs = 1;
  config.initial_recovery_epochs = 1;
  config.finetune.batch_size = 16;
  config.max_steps = 2;
  core::CcqController controller(model, train_set, val_set, config);
  controller.init();
  while (!controller.done()) controller.step();

  // One trail entry per committed step, each naming a real layer and a
  // real ladder position.
  const core::RungTrail& trail = controller.trail();
  ASSERT_EQ(trail.size(), 2u);
  for (const core::TrailStep& step : trail) {
    EXPECT_LT(step.layer, model.registry().size());
    EXPECT_LT(step.ladder_pos, model.registry().ladder().size());
  }

  // v2 state round-trip carries the trail.
  const std::string state_path = temp_path("ccq_adaptive_state.bin");
  controller.save_state(state_path);
  core::CcqController resumed(model, train_set, val_set, config);
  ASSERT_TRUE(resumed.load_state(state_path));
  EXPECT_EQ(resumed.trail(), trail);

  // A v1 state (an old build's output: no trail block) still loads —
  // with an empty trail.  Simulated by byte surgery: patch the version
  // field and splice out the trail section it precedes.
  std::string bytes = read_file(state_path);
  const std::uint32_t v1 = 1;
  std::memcpy(bytes.data() + 8, &v1, sizeof(v1));  // after the u64 magic
  // Trail block lives after magic(8) + version(4) + layers(8) + step(4)
  // + epoch(4) + planned(4) + baseline(4) + recovery(4) = offset 40:
  // u64 count + count * (u32 layer + u32 pos + f32 acc).
  const std::size_t trail_bytes = 8 + trail.size() * 12;
  bytes.erase(40, trail_bytes);
  write_file(state_path, bytes);
  core::CcqController legacy(model, train_set, val_set, config);
  ASSERT_TRUE(legacy.load_state(state_path));
  EXPECT_TRUE(legacy.trail().empty());
}

}  // namespace
}  // namespace ccq::serve
