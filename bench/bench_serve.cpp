// Serving benchmarks: closed- and open-loop traffic against the
// registry-routed server, plus the zero-allocation claim — steady-state
// serving performs no float-storage allocations (workspace-pooled
// staging/logits, capacity-reusing reply tensors).
//
//   * BM_ServeClosedLoop — P producers submit-wait-submit as fast as
//     replies return: measures capacity; p50/p99 are exact per-request
//     round trips from the harness.
//   * BM_ServeOpenLoop — submissions paced at a fixed offered rate,
//     rejections shed: measures latency under a load you chose; p50/p99
//     come from the server's `serve.<model>.latency` histogram and the
//     shed rate is reported alongside (a saturated row is meaningless
//     without it).
//     Both loops run every traffic shape twice on a `max_delay_us` axis:
//     0 (work-conserving, the `ModelConfig{}` default) and a batch-fill
//     hold, so each row says whether the hold buys anything.
//   * BM_ServeLatency — single request on an idle server: the floor the
//     batching delay adds to, through `submit(...).get()` and through the
//     blocking `infer` that runs the batch on the caller's thread.
//   * BM_ServeForwardBatch — per-sample `IntegerNetwork::forward` time
//     on the bench net at batch 1…16: the engine-side price of batching
//     (a hold can only pay off if this falls with batch size).
//   * BM_ServeMixedPriority — two models at a 4:1 fair-share weight
//     ratio under a mixed-priority (low/normal/high) open-loop sweep:
//     per-class p50/p99 from the `serve.<model>.latency.<class>`
//     histograms and the shed split per class.  Shed rates here (and in
//     the open-loop rows) are computed against `HarnessReport::offered`
//     — true submission attempts — not the sample count.
//
// The rows are snapshotted into BENCH_serve.json by
// `tools/bench_snapshot.py --suite serve`.  Build with
// -DCCQ_COUNT_ALLOCS=ON to see the alloc columns:
//
//   cmake -B build -DCMAKE_BUILD_TYPE=Release -DCCQ_COUNT_ALLOCS=ON
//   ./build/bench/bench_serve
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "ccq/common/alloc.hpp"
#include "ccq/common/telemetry.hpp"
#include "ccq/models/simple.hpp"
#include "ccq/serve/harness.hpp"

namespace {

using namespace ccq;

struct AllocSnapshot {
  std::size_t count = alloc_stats::count();
  std::size_t bytes = alloc_stats::bytes();
};

void report_allocs(benchmark::State& state, const AllocSnapshot& before) {
  if (!alloc_stats::enabled()) return;
  const auto iters = static_cast<double>(state.iterations());
  state.counters["allocs_per_iter"] = benchmark::Counter(
      static_cast<double>(alloc_stats::count() - before.count) / iters);
  state.counters["alloc_kb_per_iter"] = benchmark::Counter(
      static_cast<double>(alloc_stats::bytes() - before.bytes) / 1024.0 /
      iters);
}

/// The served model: an untrained simplecnn quantized to a mixed
/// 8/4/2 allocation — serving cost does not depend on the weight values.
models::QuantModel bench_model() {
  models::ModelConfig mc;
  mc.num_classes = 10;
  mc.image_size = 16;
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
  Tensor calib({8, 3, 16, 16});
  auto cd = calib.data();
  for (std::size_t i = 0; i < cd.size(); ++i) {
    cd[i] = static_cast<float>((i * 2654435761u >> 8) & 255u) / 255.0f;
  }
  model.forward(calib, ws);
  model.set_training(false);
  return model;
}

hw::IntegerNetwork bench_network() {
  auto model = bench_model();
  return hw::IntegerNetwork::compile(model);
}

Tensor bench_samples(std::size_t n) {
  Tensor x({n, 3, 16, 16});
  auto data = x.data();
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<float>((i * 2654435761u >> 8) & 255u) / 255.0f;
  }
  return x;
}

void report_quantiles(benchmark::State& state,
                      std::vector<std::uint64_t>& latencies) {
  if (latencies.empty()) return;
  std::sort(latencies.begin(), latencies.end());
  auto nearest = [&](double q) {
    std::size_t rank = static_cast<std::size_t>(
        q * static_cast<double>(latencies.size()) + 0.5);
    rank = std::min(std::max<std::size_t>(rank, 1), latencies.size());
    return static_cast<double>(latencies[rank - 1]) / 1e3;
  };
  state.counters["p50_us"] = benchmark::Counter(nearest(0.50));
  state.counters["p99_us"] = benchmark::Counter(nearest(0.99));
}

/// Closed loop: P producers in lock-step with the server (submit → wait
/// → next).  Measures capacity; retries queue-full rejections, so every
/// sample is eventually served.  Axes: producers × workers × hold.
void BM_ServeClosedLoop(benchmark::State& state) {
  serve::ServeConfig config;
  config.workers = static_cast<std::size_t>(state.range(1));
  serve::InferenceServer server(config);
  serve::ModelConfig mc;
  mc.max_batch = 8;
  mc.max_delay_us = static_cast<std::uint64_t>(state.range(2));
  mc.queue_capacity = 256;
  server.load("bench", bench_network(), mc);
  serve::ServeHarness harness(server, "bench");

  const std::size_t wave = 64;
  const Tensor samples = bench_samples(wave);
  serve::HarnessOptions options;
  options.producers = static_cast<std::size_t>(state.range(0));

  harness.run(samples, options);  // warm workspaces and reply tensors
  const AllocSnapshot before;
  std::vector<std::uint64_t> latencies;
  for (auto _ : state) {
    const serve::HarnessReport report = harness.run(samples, options);
    latencies.insert(latencies.end(), report.latency_ns.begin(),
                     report.latency_ns.end());
    benchmark::DoNotOptimize(report.outputs.data());
  }
  report_allocs(state, before);
  report_quantiles(state, latencies);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(wave));
}
BENCHMARK(BM_ServeClosedLoop)
    ->ArgNames({"producers", "workers", "max_delay_us"})
    ->Args({1, 1, 200})
    ->Args({1, 1, 0})
    ->Args({4, 1, 200})
    ->Args({4, 1, 0})
    ->Args({4, 2, 200})
    ->Args({4, 2, 0})
    ->Args({8, 4, 200})
    ->Args({8, 4, 0})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// Open loop: submissions paced at a fixed aggregate offered rate,
/// rejections shed.  The latency distribution comes from the server's
/// own `serve.bench.latency` histogram (log₂ buckets — factor-of-two
/// resolution, which is what the offered-load sweep needs), the shed
/// rate from the report.  Axes: offered requests/second, swept across
/// the saturation knee, × hold.
void BM_ServeOpenLoop(benchmark::State& state) {
  serve::ServeConfig config;
  config.workers = 2;
  serve::InferenceServer server(config);
  serve::ModelConfig mc;
  mc.max_batch = 8;
  mc.max_delay_us = static_cast<std::uint64_t>(state.range(1));
  mc.queue_capacity = 64;
  server.load("bench", bench_network(), mc);
  serve::ServeHarness harness(server, "bench");

  const Tensor samples = bench_samples(256);
  serve::HarnessOptions options;
  options.producers = 4;
  options.offered_rps = static_cast<double>(state.range(0));

  harness.run(samples, {.producers = 4});  // warm (closed loop, no pacing)
  const bool metrics_were_on = telemetry::metrics_enabled();
  telemetry::set_metrics_enabled(true);
  telemetry::reset_metrics();
  std::size_t offered = 0, served = 0, shed = 0;
  for (auto _ : state) {
    const serve::HarnessReport report = harness.run(samples, options);
    offered += report.offered;
    served += report.requests;
    shed += report.rejected + report.shed;
    benchmark::DoNotOptimize(report.outputs.data());
  }
  const int timer = telemetry::find_named_metric(telemetry::NamedKind::kTimer,
                                                 "serve.bench.latency");
  if (timer >= 0) {
    const telemetry::TimerStats stats = telemetry::named_timer_stats(timer);
    state.counters["p50_us"] = benchmark::Counter(
        static_cast<double>(telemetry::approx_quantile(stats, 0.50)) / 1e3);
    state.counters["p99_us"] = benchmark::Counter(
        static_cast<double>(telemetry::approx_quantile(stats, 0.99)) / 1e3);
  }
  state.counters["shed_rate"] = benchmark::Counter(
      offered == 0 ? 0.0
                   : static_cast<double>(shed) / static_cast<double>(offered));
  telemetry::set_metrics_enabled(metrics_were_on);
  state.SetItemsProcessed(static_cast<std::int64_t>(served));
}
BENCHMARK(BM_ServeOpenLoop)
    ->ArgNames({"offered_rps", "max_delay_us"})
    ->ArgsProduct({{1000, 4000, 16000, 64000}, {1000, 0}})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// Single-request round-trip latency (enqueue → reply) on an otherwise
/// idle server: the floor the dynamic-batching delay adds to.  Axis
/// `infer`: 0 = `submit(...).get()`, where a worker wakes to run the
/// batch and the reply wakes the caller; 1 = the blocking `infer`, which
/// finds a slot free and runs the batch on the calling thread.
void BM_ServeLatency(benchmark::State& state) {
  serve::ServeConfig config;
  config.workers = static_cast<std::size_t>(state.range(0));
  const bool blocking = state.range(1) != 0;
  serve::InferenceServer server(config);
  serve::ModelConfig mc;
  mc.max_batch = 1;  // flush immediately: pure per-request latency
  const serve::ModelHandle handle =
      server.load("bench", bench_network(), mc);

  Tensor sample = bench_samples(1).reshaped({3, 16, 16});
  Tensor out;
  Workspace ws;
  {
    // Warm every worker's workspace: with max_batch = 1 a backlog of
    // concurrent requests spreads across all workers.
    std::vector<Tensor> warm_outs(32);
    std::vector<std::future<void>> warm;
    warm.reserve(warm_outs.size());
    for (Tensor& warm_out : warm_outs) {
      warm.push_back(server.submit(handle, sample, warm_out));
    }
    for (auto& reply : warm) reply.get();
  }
  // …and the reply tensor (and, for infer, the caller's workspace).
  const auto round_trip = [&] {
    if (blocking) {
      server.infer(handle, sample, out, ws);
    } else {
      server.submit(handle, sample, out).get();
    }
  };
  round_trip();
  const AllocSnapshot before;
  for (auto _ : state) {
    round_trip();
    benchmark::DoNotOptimize(out.data().data());
  }
  report_allocs(state, before);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ServeLatency)
    ->ArgNames({"workers", "infer"})
    ->ArgsProduct({{1, 2, 4}, {0, 1}})
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

/// Per-sample cost of one `IntegerNetwork::forward` over a batch of B
/// samples of the served bench net, on one kernel thread.  This is what
/// a batch-fill hold trades queueing delay for: if the per-sample time
/// does not fall with B, a worker gains nothing by waiting for more
/// requests.  Axis: batch size.
void BM_ServeForwardBatch(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  const hw::IntegerNetwork net = bench_network();
  const Tensor x = bench_samples(batch);
  Workspace ws;
  const ExecContext ctx(1);
  ws.recycle(net.forward(x, ws, ctx));  // warm the pool
  const AllocSnapshot before;
  for (auto _ : state) {
    Tensor logits = net.forward(x, ws, ctx);
    benchmark::DoNotOptimize(logits.data().data());
    ws.recycle(std::move(logits));
  }
  report_allocs(state, before);
  const auto samples = static_cast<std::int64_t>(state.iterations()) *
                       static_cast<std::int64_t>(batch);
  state.SetItemsProcessed(samples);
  state.counters["us_per_sample"] = benchmark::Counter(
      static_cast<double>(samples) / 1e6,
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_ServeForwardBatch)
    ->ArgNames({"batch"})
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

/// Two models sharing one pool at a 4:1 fair-share weight ratio, each
/// under an open-loop mixed-priority load (samples cycle through
/// low/normal/high).  Per-class p50/p99 come from the per-model
/// `serve.<model>.latency.<class>` histograms merged across the two
/// models; the shed split per class from `serve.<model>.shed.<class>`.
/// Axis: total offered requests/second across both models.
void BM_ServeMixedPriority(benchmark::State& state) {
  serve::ServeConfig config;
  config.workers = 2;
  serve::InferenceServer server(config);
  serve::ModelConfig heavy;
  heavy.max_batch = 8;
  heavy.max_delay_us = 1000;
  heavy.queue_capacity = 64;
  heavy.weight = 4.0;
  serve::ModelConfig light = heavy;
  light.weight = 1.0;
  server.load("bench-heavy", bench_network(), heavy);
  server.load("bench-light", bench_network(), light);
  serve::ServeHarness drive_heavy(server, "bench-heavy");
  serve::ServeHarness drive_light(server, "bench-light");

  const Tensor samples = bench_samples(128);
  serve::HarnessOptions options;
  options.producers = 2;
  options.offered_rps = static_cast<double>(state.range(0)) / 2.0;  // per model
  options.priorities.resize(samples.dim(0));
  for (std::size_t i = 0; i < options.priorities.size(); ++i) {
    options.priorities[i] = static_cast<serve::Priority>(i % 3);
  }

  drive_heavy.run(samples, {.producers = 2});  // warm (closed loop)
  drive_light.run(samples, {.producers = 2});
  const bool metrics_were_on = telemetry::metrics_enabled();
  telemetry::set_metrics_enabled(true);
  telemetry::reset_metrics();
  std::size_t offered = 0, served = 0, shed = 0;
  for (auto _ : state) {
    serve::HarnessReport heavy_report;
    std::thread heavy_thread(
        [&] { heavy_report = drive_heavy.run(samples, options); });
    const serve::HarnessReport light_report =
        drive_light.run(samples, options);
    heavy_thread.join();
    offered += heavy_report.offered + light_report.offered;
    served += heavy_report.requests + light_report.requests;
    shed += heavy_report.rejected + heavy_report.shed + light_report.rejected +
            light_report.shed;
    benchmark::DoNotOptimize(heavy_report.outputs.data());
    benchmark::DoNotOptimize(light_report.outputs.data());
  }
  const char* const models[] = {"bench-heavy", "bench-light"};
  for (int p = 0; p < static_cast<int>(serve::kPriorityCount); ++p) {
    const std::string cls = serve::priority_name(static_cast<serve::Priority>(p));
    telemetry::TimerStats merged;
    std::uint64_t class_shed = 0;
    for (const char* model : models) {
      const std::string prefix = std::string("serve.") + model + ".";
      const int timer = telemetry::find_named_metric(
          telemetry::NamedKind::kTimer, prefix + "latency." + cls);
      if (timer >= 0) {
        const telemetry::TimerStats stats = telemetry::named_timer_stats(timer);
        merged.count += stats.count;
        for (int b = 0; b < telemetry::kHistogramBuckets; ++b) {
          merged.buckets[static_cast<std::size_t>(b)] +=
              stats.buckets[static_cast<std::size_t>(b)];
        }
      }
      const int shed_counter = telemetry::find_named_metric(
          telemetry::NamedKind::kCounter, prefix + "shed." + cls);
      if (shed_counter >= 0) {
        class_shed += telemetry::named_counter_value(shed_counter);
      }
    }
    state.counters["p50_" + cls + "_us"] = benchmark::Counter(
        static_cast<double>(telemetry::approx_quantile(merged, 0.50)) / 1e3);
    state.counters["p99_" + cls + "_us"] = benchmark::Counter(
        static_cast<double>(telemetry::approx_quantile(merged, 0.99)) / 1e3);
    state.counters["shed_" + cls] = benchmark::Counter(
        static_cast<double>(class_shed) /
        static_cast<double>(state.iterations()));
  }
  state.counters["shed_rate"] = benchmark::Counter(
      offered == 0 ? 0.0
                   : static_cast<double>(shed) / static_cast<double>(offered));
  telemetry::set_metrics_enabled(metrics_were_on);
  state.SetItemsProcessed(static_cast<std::int64_t>(served));
}
BENCHMARK(BM_ServeMixedPriority)
    ->ArgNames({"offered_rps"})
    ->Arg(4000)
    ->Arg(16000)
    ->Arg(64000)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
