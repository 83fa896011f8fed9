// Kernel microbenchmarks (google-benchmark): regression guards for the
// numerical primitives every experiment runs on — GEMM, im2col-lowered
// convolution, the quantizers, and the competition probe path.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <string>

#include "ccq/common/telemetry.hpp"
#include "ccq/core/trainer.hpp"
#include "ccq/hw/integer_engine.hpp"
#include "ccq/data/synthetic.hpp"
#include "ccq/models/resnet.hpp"
#include "ccq/nn/conv.hpp"
#include "ccq/nn/loss.hpp"
#include "ccq/nn/norm.hpp"
#include "ccq/nn/optim.hpp"
#include "ccq/quant/act_quant.hpp"
#include "ccq/quant/calibrate.hpp"
#include "ccq/quant/weight_hooks.hpp"
#include "ccq/tensor/gemm.hpp"

namespace {

using namespace ccq;

/// Snapshot of the float-storage allocation counter (alloc.hpp), taken
/// before the timing loop so per-iteration columns can be reported.
struct AllocSnapshot {
  std::size_t count = alloc_stats::count();
  std::size_t bytes = alloc_stats::bytes();
};

/// Report allocations per iteration as counter columns.  No-ops (columns
/// stay absent) when CCQ_COUNT_ALLOCS is off.
void report_allocs(benchmark::State& state, const AllocSnapshot& before) {
  if (!alloc_stats::enabled()) return;
  const auto iters = static_cast<double>(state.iterations());
  state.counters["allocs_per_iter"] = benchmark::Counter(
      static_cast<double>(alloc_stats::count() - before.count) / iters);
  state.counters["alloc_kb_per_iter"] = benchmark::Counter(
      static_cast<double>(alloc_stats::bytes() - before.bytes) / 1024.0 /
      iters);
}

void BM_Gemm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  Tensor a = Tensor::randn({n, n}, rng);
  Tensor b = Tensor::randn({n, n}, rng);
  for (auto _ : state) {
    Tensor c = matmul(a, b);
    benchmark::DoNotOptimize(c.data().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * n * n));
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256);

// Thread-scaling variants: same kernels through an explicit ExecContext.
// Outputs are bit-identical across thread counts (see parallel_test);
// these guard the scaling itself.  Args are {size, threads}.
void BM_GemmThreads(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto threads = static_cast<std::size_t>(state.range(1));
  ExecContext ctx(threads);
  Rng rng(1);
  Tensor a = Tensor::randn({n, n}, rng);
  Tensor b = Tensor::randn({n, n}, rng);
  for (auto _ : state) {
    Tensor c = matmul(a, b, ctx);
    benchmark::DoNotOptimize(c.data().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * n * n));
}
BENCHMARK(BM_GemmThreads)
    ->Args({256, 1})
    ->Args({256, 2})
    ->Args({256, 4})
    ->Args({512, 1})
    ->Args({512, 2})
    ->Args({512, 4})
    ->UseRealTime();

void BM_ConvForwardThreads(benchmark::State& state) {
  const auto channels = static_cast<std::size_t>(state.range(0));
  const auto threads = static_cast<std::size_t>(state.range(1));
  ExecContext ctx(threads);
  Rng rng(2);
  nn::Conv2d conv(channels, channels, 3, 1, 1, false, rng);
  conv.set_exec_context(&ctx);
  Tensor x = Tensor::randn({8, channels, 16, 16}, rng);
  Workspace ws;
  for (auto _ : state) {
    Tensor y = conv.forward(x, ws);
    benchmark::DoNotOptimize(y.data().data());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) * 8 *
      static_cast<std::int64_t>(conv.macs_per_sample(16, 16)));
}
BENCHMARK(BM_ConvForwardThreads)
    ->Args({32, 1})
    ->Args({32, 2})
    ->Args({32, 4})
    ->UseRealTime();

void BM_ConvBackwardThreads(benchmark::State& state) {
  const auto channels = static_cast<std::size_t>(state.range(0));
  const auto threads = static_cast<std::size_t>(state.range(1));
  ExecContext ctx(threads);
  Rng rng(3);
  nn::Conv2d conv(channels, channels, 3, 1, 1, false, rng);
  conv.set_exec_context(&ctx);
  Tensor x = Tensor::randn({8, channels, 16, 16}, rng);
  Workspace ws;
  Tensor y = conv.forward(x, ws);
  Tensor gy = Tensor::randn(y.shape(), rng);
  for (auto _ : state) {
    conv.weight().zero_grad();
    Tensor gx = conv.backward(gy, ws);
    benchmark::DoNotOptimize(gx.data().data());
  }
}
BENCHMARK(BM_ConvBackwardThreads)
    ->Args({16, 1})
    ->Args({16, 2})
    ->Args({16, 4})
    ->UseRealTime();

void BM_ConvForward(benchmark::State& state) {
  const auto channels = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  nn::Conv2d conv(channels, channels, 3, 1, 1, false, rng);
  Tensor x = Tensor::randn({8, channels, 16, 16}, rng);
  Workspace ws;
  ws.recycle(conv.forward(x, ws));  // warm the pool
  const AllocSnapshot before;
  for (auto _ : state) {
    Tensor y = conv.forward(x, ws);
    benchmark::DoNotOptimize(y.data().data());
    ws.recycle(std::move(y));
  }
  report_allocs(state, before);
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) * 8 *
      static_cast<std::int64_t>(conv.macs_per_sample(16, 16)));
}
BENCHMARK(BM_ConvForward)->Arg(8)->Arg(16)->Arg(32);

void BM_ConvBackward(benchmark::State& state) {
  const auto channels = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  nn::Conv2d conv(channels, channels, 3, 1, 1, false, rng);
  Tensor x = Tensor::randn({8, channels, 16, 16}, rng);
  Workspace ws;
  Tensor y = conv.forward(x, ws);
  Tensor gy = Tensor::randn(y.shape(), rng);
  for (auto _ : state) {
    conv.weight().zero_grad();
    Tensor gx = conv.backward(gy, ws);
    benchmark::DoNotOptimize(gx.data().data());
  }
}
BENCHMARK(BM_ConvBackward)->Arg(8)->Arg(16);

template <typename Hook>
void BM_WeightQuantizer(benchmark::State& state) {
  Hook hook;
  hook.set_bits(static_cast<int>(state.range(0)));
  Rng rng(4);
  Tensor w = Tensor::randn({64 * 64 * 9}, rng, 0.2f);
  for (auto _ : state) {
    Tensor q = hook.quantize(w);
    benchmark::DoNotOptimize(q.data().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(w.numel()));
}
BENCHMARK_TEMPLATE(BM_WeightQuantizer, quant::DoReFaWeightHook)->Arg(2)->Arg(8);
BENCHMARK_TEMPLATE(BM_WeightQuantizer, quant::SawbWeightHook)->Arg(2)->Arg(8);
BENCHMARK_TEMPLATE(BM_WeightQuantizer, quant::LqNetsWeightHook)->Arg(2)->Arg(8);
BENCHMARK_TEMPLATE(BM_WeightQuantizer, quant::MinMaxWeightHook)->Arg(2)->Arg(8);

/// Elementwise training layers at the SimpleCNN's first activation shape
/// (batch 32, 4 channels of 16×16 at width 0.25): one forward plus one
/// backward in training mode.
const Shape kActShape = {32, 4, 16, 16};

/// PACT at fp (Arg 32, as in pretraining) and at 8 bits (Arg 8, the
/// first ladder rung).  α = 2 saturates about 2% of the N(0, 1) inputs,
/// so the dL/dα sum runs too.
void BM_PactStep(benchmark::State& state) {
  quant::PactActivation act(2.0f);
  act.set_bits(static_cast<int>(state.range(0)));
  Rng rng(5);
  const Tensor x = Tensor::randn(kActShape, rng);
  const Tensor gy = Tensor::randn(kActShape, rng);
  Workspace ws;
  auto step = [&] {
    ws.recycle(act.forward(x, ws));
    Tensor g = act.backward(gy, ws);
    benchmark::DoNotOptimize(g.data().data());
    ws.recycle(std::move(g));
  };
  step();  // warm the pool and the input cache
  const AllocSnapshot before;
  for (auto _ : state) step();
  report_allocs(state, before);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(x.numel()));
}
BENCHMARK(BM_PactStep)->Arg(32)->Arg(8);

void BM_BatchNormStep(benchmark::State& state) {
  nn::BatchNorm2d bn(kActShape[1]);
  Rng rng(6);
  const Tensor x = Tensor::randn(kActShape, rng);
  const Tensor gy = Tensor::randn(kActShape, rng);
  Workspace ws;
  auto step = [&] {
    ws.recycle(bn.forward(x, ws));
    Tensor g = bn.backward(gy, ws);
    benchmark::DoNotOptimize(g.data().data());
    ws.recycle(std::move(g));
  };
  step();
  const AllocSnapshot before;
  for (auto _ : state) step();
  report_allocs(state, before);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(x.numel()));
}
BENCHMARK(BM_BatchNormStep);

/// One augmented batch of 32 at 3×16×16 (pad-crop 2 and flips, the
/// training default): the epoch's shuffle of 32 indices, then the batch.
void BM_LoaderNext(benchmark::State& state) {
  data::SyntheticConfig dc;
  dc.num_classes = 4;
  dc.samples_per_class = 8;
  dc.height = dc.width = 16;
  dc.seed = 10;
  const data::Dataset dataset = data::make_synthetic_vision(dc);
  data::DataLoader loader(dataset, 32, data::Augment{}, Rng(8));
  data::Batch batch;
  loader.next(batch);
  const AllocSnapshot before;
  for (auto _ : state) {
    loader.start_epoch();
    loader.next(batch);
    benchmark::DoNotOptimize(batch.images.data().data());
    benchmark::ClobberMemory();
  }
  report_allocs(state, before);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch.size()));
}
BENCHMARK(BM_LoaderNext);

/// Shared fixture for the end-to-end benches: a thin ResNet20 plus a
/// small synthetic probe/train batch (the paper's probe geometry).
models::QuantModel bench_model() {
  models::ModelConfig config;
  config.num_classes = 10;
  config.image_size = 16;
  config.width_multiplier = 0.25f;
  config.seed = 7;
  quant::QuantFactory factory{.policy = quant::Policy::kPact};
  return models::make_resnet20(config, factory, quant::BitLadder({8, 4, 2}));
}

data::Batch bench_batch(std::size_t samples_per_class) {
  data::SyntheticConfig dc;
  dc.num_classes = 10;
  dc.samples_per_class = samples_per_class;
  dc.height = dc.width = 16;
  dc.seed = 9;
  return data::make_synthetic_vision(dc).all();
}

/// RAII toggle for the telemetry metrics registry: Arg(0) benches the
/// disabled (gated no-op) path, Arg(1) the full recording path — the two
/// rows quantify the ≤2% overhead budget (docs/OBSERVABILITY.md).
struct MetricsToggle {
  explicit MetricsToggle(bool on) { telemetry::set_metrics_enabled(on); }
  ~MetricsToggle() {
    telemetry::set_metrics_enabled(false);
    telemetry::reset_metrics();
  }
};

/// One competition probe (Algorithm 1 lines 6–10): temp-quantize a layer
/// one ladder rung down, evaluate the probe batch, restore.  This is the
/// CCQ controller's hot loop — U probes per quantization step.  Arg is
/// telemetry off/on.
void BM_ProbeStep(benchmark::State& state) {
  const MetricsToggle metrics(state.range(0) != 0);
  auto model = bench_model();
  const data::Batch probe = bench_batch(2);
  Workspace ws;
  core::evaluate_batch(model, probe, 128, ws);  // warm the pool
  const std::size_t layers = model.registry().size();
  const AllocSnapshot before;
  std::size_t m = 0;
  for (auto _ : state) {
    quant::LayerRegistry::ProbeGuard guard(model.registry(), m % layers);
    const core::EvalResult r = core::evaluate_batch(model, probe, 128, ws);
    benchmark::DoNotOptimize(r.loss);
    ++m;
  }
  report_allocs(state, before);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(probe.size()));
}
BENCHMARK(BM_ProbeStep)->Arg(0)->Arg(1);

/// One SGD step (forward + loss + backward + update) on a fixed batch —
/// the recovery-epoch inner loop.  Arg is telemetry off/on.
void BM_TrainStep(benchmark::State& state) {
  const MetricsToggle metrics(state.range(0) != 0);
  auto model = bench_model();
  const data::Batch batch = bench_batch(2);
  nn::Sgd optimizer(model.parameters(), nn::SgdConfig{});
  Workspace ws;
  nn::SoftmaxCrossEntropy loss(ws);
  model.set_training(true);
  Tensor grad = ws.tensor_uninit({batch.size(), 10});
  // Warm-up step populates the pool and every layer cache.
  auto step = [&] {
    optimizer.zero_grad();
    Tensor logits = model.forward(batch.images, ws);
    const float l = loss.forward(logits, batch.labels);
    ws.recycle(std::move(logits));
    loss.backward_into(grad);
    model.backward(grad, ws);
    optimizer.step();
    return l;
  };
  step();
  const AllocSnapshot before;
  for (auto _ : state) {
    benchmark::DoNotOptimize(step());
  }
  report_allocs(state, before);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch.size()));
}
BENCHMARK(BM_TrainStep)->Arg(0)->Arg(1);

/// Synthetic two-conv integer network at a given weight/activation bit
/// width — codes drawn once with a fixed seed and realistic low-bit
/// sparsity (~40% zeros), packed through the normal from_plans path.
hw::IntegerNetwork igemm_net(int bits) {
  Rng rng(11 + static_cast<std::uint64_t>(bits));
  const std::int32_t top = 1 << bits;
  auto conv_plan = [&](std::size_t in_c, std::size_t out_c, std::string name) {
    hw::IntLayerPlan p;
    p.kind = hw::IntLayerPlan::Kind::kConv;
    p.name = std::move(name);
    p.in_channels = in_c;
    p.out_channels = out_c;
    p.kernel = 3;
    p.stride = 1;
    p.pad = 1;
    p.weight_bits = bits;
    p.weight_codes.resize(out_c * in_c * 9);
    for (auto& c : p.weight_codes) {
      c = rng.uniform() < 0.4
              ? 0
              : static_cast<std::int32_t>(rng.uniform_int(2 * top + 1)) - top;
    }
    p.channel_scale.assign(out_c, 0.001f);
    p.bias.assign(out_c, 0.01f);
    p.has_act = true;
    p.act_bits = bits;
    p.act_clip = 1.0f;
    return p;
  };
  return hw::IntegerNetwork::from_plans(
      {conv_plan(16, 32, "conv1"), conv_plan(32, 32, "conv2")});
}

/// Pins $CCQ_IGEMM_KERNEL for the duration of a bench so `from_plans`
/// compiles every eligible layer with one named kernel, then restores
/// whatever the user had exported.
struct KernelEnvPin {
  explicit KernelEnvPin(const char* kernel) {
    const char* prev = std::getenv("CCQ_IGEMM_KERNEL");
    if (prev != nullptr) saved_ = prev;
    had_ = prev != nullptr;
    if (kernel != nullptr) {
      setenv("CCQ_IGEMM_KERNEL", kernel, 1);
    } else {
      unsetenv("CCQ_IGEMM_KERNEL");
    }
  }
  ~KernelEnvPin() {
    if (had_) {
      setenv("CCQ_IGEMM_KERNEL", saved_.c_str(), 1);
    } else {
      unsetenv("CCQ_IGEMM_KERNEL");
    }
  }
  std::string saved_;
  bool had_ = false;
};

/// The igemm kernel grid: each registry variant against the naive int64
/// triple loop (`forward_reference`) on the same compiled net.  Args are
/// {bits, mode} with mode 0=reference, 1=vec16, 2=vec-packed (the mode
/// names index igemm_kernel_names()).  All modes run the
/// identical workspace-leased datapath, so the time ratios isolate the
/// microkernels.  Outputs are bit-identical by construction
/// (igemm_property_test), so only speed and the allocs_per_iter=0 warm
/// contract are at stake here.  8-bit skips vec-packed: its ±256 weight
/// codes overflow the signed-8 lane format, so selection would silently
/// fall back and mislabel the row.  Builds without 8-bit-lane SIMD skip
/// vec-packed at every width for the same reason (it is never eligible
/// there).
void BM_IgemmForward(benchmark::State& state) {
  const int bits = static_cast<int>(state.range(0));
  const auto mode = static_cast<std::size_t>(state.range(1));
  static const char* const kModes[] = {nullptr, "vec16", "vec-packed"};
  const bool reference = mode == 0;
  const KernelEnvPin pin(kModes[mode]);
  hw::IntegerNetwork net = igemm_net(bits);  // reads the pinned override
  state.SetLabel(reference ? "reference" : kModes[mode]);
  Rng rng(3);
  Tensor x({4, 16, 16, 16});
  for (auto& v : x.data()) v = static_cast<float>(rng.uniform());
  Workspace ws;
  ExecContext ctx;  // serial: thread scaling is covered by *Threads benches
  ws.recycle(reference ? net.forward_reference(x, ws, ctx)
                       : net.forward(x, ws, ctx));  // warm the pool
  const AllocSnapshot before;
  for (auto _ : state) {
    Tensor y = reference ? net.forward_reference(x, ws, ctx)
                         : net.forward(x, ws, ctx);
    benchmark::DoNotOptimize(y.data().data());
    ws.recycle(std::move(y));
  }
  report_allocs(state, before);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 4 *
                          static_cast<std::int64_t>(net.macs_per_sample(16, 16)));
}
void igemm_forward_args(benchmark::internal::Benchmark* b) {
  for (int bits : {2, 4, 8}) {
    for (int mode = 0; mode <= 2; ++mode) {
      if (mode == 2 && (bits == 8 || !igemm_packed_simd())) continue;
      b->Args({bits, mode});
    }
  }
}
BENCHMARK(BM_IgemmForward)->Apply(igemm_forward_args);

/// Deeper end-to-end net for the engine-forward snapshot: two conv
/// blocks with max/avg pooling, a global-average head and an unfused
/// float classifier.  Unlike `igemm_net` this exercises the whole fused
/// datapath — u8 activation codes flowing through requantizing igemm
/// epilogues, integer pooling on codes, and the final decode — not just
/// the igemm core.
hw::IntegerNetwork engine_net(int bits) {
  Rng rng(23 + static_cast<std::uint64_t>(bits));
  const std::int32_t top = 1 << bits;
  auto conv_plan = [&](std::size_t in_c, std::size_t out_c, std::string name) {
    hw::IntLayerPlan p;
    p.kind = hw::IntLayerPlan::Kind::kConv;
    p.name = std::move(name);
    p.in_channels = in_c;
    p.out_channels = out_c;
    p.kernel = 3;
    p.stride = 1;
    p.pad = 1;
    p.weight_bits = bits;
    p.weight_codes.resize(out_c * in_c * 9);
    for (auto& c : p.weight_codes) {
      c = rng.uniform() < 0.4
              ? 0
              : static_cast<std::int32_t>(rng.uniform_int(2 * top + 1)) - top;
    }
    p.channel_scale.assign(out_c, 0.001f);
    p.bias.assign(out_c, 0.01f);
    p.has_act = true;
    p.act_bits = bits;
    p.act_clip = 1.0f;
    return p;
  };
  auto pool_plan = [](hw::IntLayerPlan::Kind kind, std::string name) {
    hw::IntLayerPlan p;
    p.kind = kind;
    p.name = std::move(name);
    p.pool_kernel = 2;
    p.pool_stride = 2;
    return p;
  };
  hw::IntLayerPlan fc;
  fc.kind = hw::IntLayerPlan::Kind::kLinear;
  fc.name = "fc";
  fc.in_features = 32;
  fc.out_features = 10;
  fc.weight_bits = bits;
  fc.weight_codes.resize(fc.in_features * fc.out_features);
  for (auto& c : fc.weight_codes) {
    c = static_cast<std::int32_t>(rng.uniform_int(2 * top + 1)) - top;
  }
  fc.channel_scale.assign(fc.out_features, 0.001f);
  fc.bias.assign(fc.out_features, 0.01f);
  return hw::IntegerNetwork::from_plans(
      {conv_plan(16, 32, "conv1"),
       pool_plan(hw::IntLayerPlan::Kind::kMaxPool, "maxpool@1"),
       conv_plan(32, 32, "conv2"),
       pool_plan(hw::IntLayerPlan::Kind::kAvgPool, "avgpool@3"),
       pool_plan(hw::IntLayerPlan::Kind::kGlobalAvgPool, "gap@4"),
       std::move(fc)});
}

/// End-to-end engine forward, fused datapath vs the naive int64
/// `forward_reference` oracle.  Args are {bits, mode} with mode
/// 0=reference, 1=fused (auto kernel selection).  Outputs are
/// bit-identical by construction (engine_datapath_test), so the rows
/// track the fused datapath's speed and the allocs_per_iter=0 warm
/// contract; BENCH_engine.json snapshots them.
void BM_EngineForward(benchmark::State& state) {
  const int bits = static_cast<int>(state.range(0));
  const bool reference = state.range(1) == 0;
  const KernelEnvPin pin(nullptr);  // auto selection
  hw::IntegerNetwork net = engine_net(bits);
  state.SetLabel(reference ? "reference" : "fused");
  Rng rng(3);
  Tensor x({4, 16, 16, 16});
  for (auto& v : x.data()) v = static_cast<float>(rng.uniform());
  Workspace ws;
  ExecContext ctx;  // serial: thread scaling is covered by *Threads benches
  ws.recycle(reference ? net.forward_reference(x, ws, ctx)
                       : net.forward(x, ws, ctx));  // warm the pool
  const AllocSnapshot before;
  for (auto _ : state) {
    Tensor y = reference ? net.forward_reference(x, ws, ctx)
                         : net.forward(x, ws, ctx);
    benchmark::DoNotOptimize(y.data().data());
    ws.recycle(std::move(y));
  }
  report_allocs(state, before);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 4 *
                          static_cast<std::int64_t>(net.macs_per_sample(16, 16)));
}
BENCHMARK(BM_EngineForward)
    ->Args({2, 0})
    ->Args({2, 1})
    ->Args({4, 0})
    ->Args({4, 1})
    ->Args({8, 0})
    ->Args({8, 1});

void BM_KlCalibration(benchmark::State& state) {
  Rng rng(5);
  Tensor w = Tensor::randn({20000}, rng, 0.1f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        quant::kl_calibrate_clip(w, static_cast<int>(state.range(0))));
  }
}
BENCHMARK(BM_KlCalibration)->Arg(2)->Arg(4);

}  // namespace

// BENCHMARK_MAIN plus one context field: whether this build carries
// vec-packed's 8-bit-lane SIMD, which decides the igemm grid's rows
// (tools/bench_snapshot.py records it with each snapshot).
int main(int argc, char** argv) {
  benchmark::AddCustomContext("igemm_packed_simd",
                              ccq::igemm_packed_simd() ? "true" : "false");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
