// Hot-swap correctness for the registry-routed server.
//
// The contract under test (ISSUE 8 tentpole): publishing v2 of a name
// under live traffic is an atomic cutover — requests admitted against
// v1 finish on v1's network bit-identically, requests admitted after
// the publish are served by v2 bit-identically, and across the cutover
// nothing is lost, rejected or double-served.  `HarnessReport::versions`
// records which version served each sample, so bit-identity is asserted
// *per admitted version*, not just per sample.
//
// PR 10 adds the SLA interaction: a mid-traffic swap under saturating
// mixed-priority load must keep the admission guarantee — high-priority
// traffic is never shed while lower-priority work is queued, on either
// side of the cutover.
//
// Labelled `serve` and run under the TSan quick tier
// (`CCQ_THREADS=4 ctest -L "parallel|telemetry|serve|igemm|engine|sla"`).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "ccq/common/telemetry.hpp"
#include "ccq/models/simple.hpp"
#include "ccq/serve/harness.hpp"

namespace ccq::serve {
namespace {

Tensor make_inputs(std::size_t n) {
  Tensor x({n, 3, 8, 8});
  auto data = x.data();
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<float>((i * 2654435761u >> 8) & 255u) / 255.0f;
  }
  return x;
}

/// A calibrated SimpleCNN whose layer i sits at ladder position
/// i mod `stride` of an 8/4/2 ladder.  Different strides give genuinely
/// different integer networks over the same input/output shapes — the
/// raw material for v1-vs-v2 swap tests.
hw::IntegerNetwork make_network(std::size_t stride) {
  models::ModelConfig mc;
  mc.num_classes = 5;
  mc.image_size = 8;
  mc.width_multiplier = 0.25f;
  quant::QuantFactory factory{.policy = quant::Policy::kMinMax};
  auto model =
      models::make_simple_cnn(mc, factory, quant::BitLadder({8, 4, 2}));
  quant::LayerRegistry& registry = model.registry();
  for (std::size_t i = 0; i < registry.size(); ++i) {
    registry.set_ladder_pos(i, i % stride);
  }
  Workspace ws;
  model.set_training(true);
  model.forward(make_inputs(16), ws);
  model.set_training(false);
  return hw::IntegerNetwork::compile(model);
}

float max_row_diff(const Tensor& row, const Tensor& batch, std::size_t i) {
  float diff = 0.0f;
  for (std::size_t c = 0; c < row.dim(0); ++c) {
    diff = std::max(diff, std::abs(row(c) - batch(i, c)));
  }
  return diff;
}

TEST(ServeSwapTest, MidTrafficSwapLosesNothingAndStaysBitIdentical) {
  hw::IntegerNetwork v1 = make_network(3);
  hw::IntegerNetwork v2 = make_network(1);  // all layers at 8 bits
  const Tensor x = make_inputs(48);
  const Tensor ref_v1 = v1.forward(x);
  const Tensor ref_v2 = v2.forward(x);
  ASSERT_NE(max_abs_diff(ref_v1, ref_v2), 0.0f)
      << "v1 and v2 must disagree for version attribution to be testable";

  ServeConfig config;
  config.workers = 2;
  InferenceServer server(config);
  ModelConfig mc;
  mc.max_batch = 4;
  mc.max_delay_us = 200;
  server.load("canary", std::move(v1), mc);

  HarnessOptions options;
  options.producers = 4;
  options.swap_after = 16;  // fire the publish mid-traffic
  options.on_swap = [&] { server.load("canary", std::move(v2), mc); };
  ServeHarness harness(server, "canary");
  const HarnessReport report = harness.run(x, options);

  // Zero lost, zero rejected: every sample got exactly one reply.
  EXPECT_EQ(report.requests, x.dim(0));
  EXPECT_EQ(report.rejected, 0u);
  ASSERT_EQ(report.outputs.size(), x.dim(0));
  ASSERT_EQ(report.versions.size(), x.dim(0));

  // Both versions actually served traffic …
  std::set<std::uint64_t> seen(report.versions.begin(), report.versions.end());
  EXPECT_EQ(seen, (std::set<std::uint64_t>{1, 2}));

  // … and every sample is bit-identical to the direct forward of the
  // version that admitted it.
  for (std::size_t i = 0; i < x.dim(0); ++i) {
    const Tensor& ref = report.versions[i] == 1 ? ref_v1 : ref_v2;
    EXPECT_EQ(max_row_diff(report.outputs[i], ref, i), 0.0f)
        << "sample " << i << " served by v" << report.versions[i];
  }

  // After the run the registry's current version is v2; v1 stays
  // resolvable by number until unloaded.
  const auto versions = server.registry().versions("canary");
  ASSERT_EQ(versions.size(), 2u);
  EXPECT_EQ(versions[0].version, 1u);
  EXPECT_FALSE(versions[0].current);
  EXPECT_EQ(versions[1].version, 2u);
  EXPECT_TRUE(versions[1].current);
}

TEST(ServeSwapTest, PinnedHandleKeepsServingItsVersionAfterSwap) {
  InferenceServer server;
  ModelConfig mc;
  mc.max_batch = 1;  // flush immediately: no cross-version batching noise
  const ModelHandle h1 = server.load("pinned", make_network(3), mc);
  server.load("pinned", make_network(1), mc);

  const Tensor x = make_inputs(4);
  const Tensor ref_v1 = h1.network().forward(x);
  const Tensor ref_v2 = server.resolve("pinned").network().forward(x);
  EXPECT_EQ(h1.version(), 1u);
  EXPECT_EQ(server.resolve("pinned").version(), 2u);
  EXPECT_EQ(server.resolve("pinned", 1).version(), 1u);

  const Shape chw{3, 8, 8};
  for (std::size_t i = 0; i < x.dim(0); ++i) {
    Tensor sample(chw);
    const auto src = x.data().subspan(i * shape_numel(chw), shape_numel(chw));
    std::copy(src.begin(), src.end(), sample.data().begin());

    Tensor via_handle, via_name;
    server.submit(h1, sample, via_handle).get();
    server.submit("pinned", sample, via_name).get();
    EXPECT_EQ(max_row_diff(via_handle, ref_v1, i), 0.0f) << i;
    EXPECT_EQ(max_row_diff(via_name, ref_v2, i), 0.0f) << i;
  }
}

TEST(ServeSwapTest, RacingLoadsNeverExposeAHalfLoadedVersion) {
  // Stress the publish itself: three clients resolve the current
  // version and submit to it while the main thread loads new versions
  // back to back.  A version must become resolvable only together with
  // its owner and its slot in the worker pool, so every submit is
  // admitted and served, whichever version it lands on.
  const hw::IntegerNetwork net = make_network(1);
  ServeConfig config;
  config.workers = 2;
  InferenceServer server(config);
  ModelConfig mc;
  mc.max_batch = 1;
  server.load("racing", net, mc);
  const Tensor sample = make_inputs(1).reshaped({3, 8, 8});

  constexpr int kClients = 3;
  std::atomic<int> ready{0};
  std::atomic<bool> start{false}, stop{false};
  std::atomic<std::size_t> served{0}, failed{0};
  std::mutex error_mutex;
  std::string first_error;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      Tensor out;
      ready.fetch_add(1);
      while (!start.load()) std::this_thread::yield();
      while (!stop.load()) {
        try {
          server.submit(server.resolve("racing"), sample, out).get();
          served.fetch_add(1);
        } catch (const std::exception& e) {
          failed.fetch_add(1);
          std::lock_guard<std::mutex> lock(error_mutex);
          if (first_error.empty()) first_error = e.what();
        }
      }
    });
  }
  while (ready.load() < kClients) std::this_thread::yield();
  start.store(true);
  // 100 ms of back-to-back loads, capped so the retained versions stay
  // a few tens of megabytes.
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(100);
  std::size_t loads = 0;
  while (std::chrono::steady_clock::now() < until && loads < 2000) {
    server.load("racing", net, mc);
    ++loads;
  }
  stop.store(true);
  for (std::thread& client : clients) client.join();

  EXPECT_EQ(failed.load(), 0u) << "first failure: " << first_error;
  EXPECT_GT(served.load(), 0u);
  EXPECT_EQ(server.resolve("racing").version(), loads + 1);
}

TEST(ServeSwapTest, UnloadServesQueuedThenRejectsStaleHandles) {
  InferenceServer server;
  ModelConfig mc;
  mc.max_batch = 16;
  mc.max_delay_us = 60'000'000;  // the unload, not the clock, must flush
  const ModelHandle handle = server.load("retiring", make_network(3), mc);

  const Shape chw{3, 8, 8};
  std::vector<Tensor> inputs, outputs(3);
  for (std::size_t i = 0; i < 3; ++i) {
    inputs.push_back(make_inputs(1).reshaped(chw));
  }
  std::vector<std::future<void>> replies;
  for (std::size_t i = 0; i < 3; ++i) {
    replies.push_back(server.submit(handle, inputs[i], outputs[i]));
  }

  server.unload("retiring");
  // Queued requests admitted before the unload still complete …
  for (auto& reply : replies) reply.get();
  for (const Tensor& out : outputs) EXPECT_EQ(out.rank(), 1u);
  server.drain();
  EXPECT_EQ(server.queue_depth(), 0u);

  // … while the name is delisted and the stale handle rejects by name
  // and version.
  EXPECT_FALSE(server.registry().has("retiring"));
  EXPECT_THROW(server.resolve("retiring"), ModelNotFoundError);
  Tensor late_in = make_inputs(1).reshaped(chw);
  Tensor late_out;
  try {
    server.submit(handle, late_in, late_out);
    FAIL() << "stale handle accepted after unload";
  } catch (const ModelRetiredError& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("retiring"), std::string::npos) << message;
    EXPECT_NE(message.find("v1"), std::string::npos) << message;
  }
}

TEST(ServeSwapTest, UnloadOneVersionKeepsTheOtherCurrent) {
  InferenceServer server;
  server.load("partial", make_network(3));
  const ModelHandle h2 = server.load("partial", make_network(1));

  server.unload("partial", 1);
  const auto versions = server.registry().versions("partial");
  ASSERT_EQ(versions.size(), 1u);
  EXPECT_EQ(versions[0].version, 2u);
  EXPECT_TRUE(versions[0].current);
  EXPECT_EQ(server.resolve("partial").version(), 2u);
  EXPECT_THROW(server.resolve("partial", 1), ModelNotFoundError);

  // v2 still serves.
  Tensor sample = make_inputs(1).reshaped({3, 8, 8});
  Tensor out;
  server.submit(h2, sample, out).get();
  EXPECT_EQ(out.rank(), 1u);
}

TEST(ServeSwapTest, MidTrafficSwapNeverShedsHighPriorityTraffic) {
  // Hot-swap × priority shed: version cutover under saturating mixed-
  // priority load must not weaken the admission guarantee — a high-
  // priority request is never shed (evicted or door-rejected) while
  // lower-priority work is queued, before, during, or after the swap.
  // Producer 0 carries every high-priority sample (closed loop: one in
  // flight at a time), the other producers hammer with lows against a
  // 2-deep queue, so eviction pressure is constant while the high class
  // can never fill the queue by itself.
  const bool metrics_were = telemetry::metrics_enabled();
  telemetry::set_metrics_enabled(true);
  telemetry::reset_metrics();

  hw::IntegerNetwork v1 = make_network(3);
  hw::IntegerNetwork v2 = make_network(1);
  const Tensor x = make_inputs(64);
  const Tensor ref_v1 = v1.forward(x);
  const Tensor ref_v2 = v2.forward(x);

  ServeConfig config;
  config.workers = 2;
  InferenceServer server(config);
  ModelConfig mc;
  mc.max_batch = 4;
  mc.max_delay_us = 200;
  mc.queue_capacity = 2;  // tiny: lows constantly shed each other
  server.load("contended", std::move(v1), mc);

  HarnessOptions options;
  options.producers = 8;
  options.priorities.assign(x.dim(0), Priority::kLow);
  for (std::size_t i = 0; i < x.dim(0); i += 8) {
    options.priorities[i] = Priority::kHigh;  // producer 0's samples
  }
  options.swap_after = 24;
  options.on_swap = [&] { server.load("contended", std::move(v2), mc); };
  ServeHarness harness(server, "contended");
  const HarnessReport report = harness.run(x, options);

  // The closed loop retries every rejection and eviction, so nothing is
  // lost, and the offered/admitted split stays internally consistent.
  EXPECT_EQ(report.requests, x.dim(0));
  EXPECT_EQ(report.offered, report.admitted + report.rejected);
  EXPECT_EQ(report.admitted, report.requests + report.shed);
  EXPECT_EQ(report.deadline_missed, 0u);

  // The swap fired mid-traffic and both versions stayed bit-identical.
  std::set<std::uint64_t> seen(report.versions.begin(), report.versions.end());
  EXPECT_EQ(seen, (std::set<std::uint64_t>{1, 2}));
  for (std::size_t i = 0; i < x.dim(0); ++i) {
    const Tensor& ref = report.versions[i] == 1 ? ref_v1 : ref_v2;
    EXPECT_EQ(max_row_diff(report.outputs[i], ref, i), 0.0f)
        << "sample " << i << " served by v" << report.versions[i];
  }

  // The SLA guarantee across the cutover: every shed — eviction victim
  // or door rejection — was low-priority.  Both versions share the
  // per-name counters, so this covers the whole run.
  const int shed_high = telemetry::find_named_metric(
      telemetry::NamedKind::kCounter, "serve.contended.shed.high");
  const int shed_low = telemetry::find_named_metric(
      telemetry::NamedKind::kCounter, "serve.contended.shed.low");
  ASSERT_GE(shed_high, 0);
  ASSERT_GE(shed_low, 0);
  EXPECT_EQ(telemetry::named_counter_value(shed_high), 0u);
  EXPECT_EQ(telemetry::named_counter_value(shed_low),
            report.shed + report.rejected);

  server.shutdown();
  telemetry::set_metrics_enabled(metrics_were);
}

TEST(ServeSwapTest, OpenLoopShedsRejectionsInsteadOfRetrying) {
  InferenceServer server;
  ModelConfig mc;
  mc.max_batch = 2;
  mc.max_delay_us = 200;
  mc.queue_capacity = 2;  // tiny: a fast open loop must overrun it
  server.load("openloop", make_network(3), mc);
  const Tensor x = make_inputs(32);
  const Tensor ref = server.resolve("openloop").network().forward(x);

  HarnessOptions options;
  options.producers = 2;
  options.offered_rps = 50'000.0;  // far beyond capacity of queue 2
  ServeHarness harness(server, "openloop");
  const HarnessReport report = harness.run(x, options);

  // Every sample was either answered or shed — never both, never lost.
  EXPECT_EQ(report.requests + report.rejected, x.dim(0));
  ASSERT_EQ(report.outputs.size(), x.dim(0));
  std::size_t answered = 0;
  for (std::size_t i = 0; i < x.dim(0); ++i) {
    if (report.outputs[i].rank() == 0) {
      EXPECT_EQ(report.versions[i], 0u) << i;  // shed
      continue;
    }
    ++answered;
    EXPECT_EQ(report.versions[i], 1u) << i;
    EXPECT_EQ(max_row_diff(report.outputs[i], ref, i), 0.0f) << i;
  }
  EXPECT_EQ(answered, report.requests);
  // Exact latencies are a closed-loop observable; open loop reads the
  // telemetry histograms instead.
  EXPECT_TRUE(report.latency_ns.empty());
}

}  // namespace
}  // namespace ccq::serve
