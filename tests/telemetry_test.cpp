// Telemetry subsystem + step-wise controller tests: metric registry
// semantics, JSONL trace schema, observer delivery, mid-run stop/resume
// bit-identity (snapshot + controller state), and the serving counters
// that tell batches run by a blocking `infer` caller from the pool's.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "ccq/common/telemetry.hpp"
#include "ccq/core/controller.hpp"
#include "ccq/core/observers.hpp"
#include "ccq/core/snapshot.hpp"
#include "ccq/data/synthetic.hpp"
#include "ccq/models/simple.hpp"
#include "ccq/serve/server.hpp"

namespace ccq::core {
namespace {

namespace fs = std::filesystem;

struct Fixture {
  data::Dataset train_set;
  data::Dataset val_set;
  models::QuantModel model;
};

// Identical construction order to the pretrained variant, so two calls
// with the same arguments produce bit-identical fixtures.
Fixture make_fixture(bool pretrain = true) {
  data::SyntheticConfig dc;
  dc.num_classes = 4;
  dc.samples_per_class = 30;
  dc.height = dc.width = 8;
  dc.seed = 5;
  data::Dataset train_set = data::make_synthetic_vision(dc);
  data::Dataset val_set = train_set.take_tail(32);

  models::ModelConfig mc;
  mc.num_classes = 4;
  mc.image_size = 8;
  mc.width_multiplier = 0.25f;
  quant::QuantFactory factory{.policy = quant::Policy::kPact};
  auto model =
      models::make_simple_cnn(mc, factory, quant::BitLadder({8, 4}));

  if (pretrain) {
    TrainConfig pre;
    pre.epochs = 2;
    pre.batch_size = 16;
    pre.sgd = {.lr = 0.05, .momentum = 0.9, .weight_decay = 1e-4};
    train(model, train_set, val_set, pre);
  }
  return Fixture{std::move(train_set), std::move(val_set), std::move(model)};
}

CcqConfig fast_config() {
  CcqConfig config;
  config.probes_per_step = 2;
  config.probe_samples = 32;
  config.max_recovery_epochs = 2;
  config.initial_recovery_epochs = 1;
  config.finetune.batch_size = 16;
  config.finetune.sgd = {.lr = 0.02, .momentum = 0.9, .weight_decay = 1e-4};
  config.hybrid_lr.base_lr = 0.02;
  return config;
}

std::string temp_path(const std::string& name) {
  return (fs::temp_directory_path() / name).string();
}

void expect_step_records_equal(const StepRecord& a, const StepRecord& b) {
  EXPECT_EQ(a.step, b.step);
  EXPECT_EQ(a.layer, b.layer);
  EXPECT_EQ(a.layer_name, b.layer_name);
  EXPECT_EQ(a.new_bits, b.new_bits);
  EXPECT_EQ(a.lambda, b.lambda);
  EXPECT_EQ(a.val_acc_before_recovery, b.val_acc_before_recovery);
  EXPECT_EQ(a.val_acc_after_recovery, b.val_acc_after_recovery);
  EXPECT_EQ(a.recovery_epochs, b.recovery_epochs);
  EXPECT_EQ(a.compression, b.compression);
  ASSERT_EQ(a.pick_probabilities.size(), b.pick_probabilities.size());
  for (std::size_t i = 0; i < a.pick_probabilities.size(); ++i) {
    EXPECT_EQ(a.pick_probabilities[i], b.pick_probabilities[i]);
  }
}

// ---- metric registry -------------------------------------------------------

TEST(TelemetryTest, DisabledCountersAreNoOps) {
  telemetry::set_metrics_enabled(false);
  telemetry::reset_metrics();
  telemetry::add(telemetry::Counter::kProbes, 5);
  telemetry::set_gauge(telemetry::Gauge::kLambda, 0.5);
  { telemetry::ScopedTimer t(telemetry::Timer::kGemm); }
  EXPECT_EQ(telemetry::counter_value(telemetry::Counter::kProbes), 0u);
  EXPECT_EQ(telemetry::gauge_value(telemetry::Gauge::kLambda), 0.0);
  EXPECT_EQ(telemetry::timer_stats(telemetry::Timer::kGemm).count, 0u);
}

TEST(TelemetryTest, EnabledRegistryRecordsAndResets) {
  telemetry::set_metrics_enabled(true);
  telemetry::reset_metrics();
  telemetry::add(telemetry::Counter::kPicks);
  telemetry::add(telemetry::Counter::kPicks, 2);
  telemetry::set_gauge(telemetry::Gauge::kCompression, 3.5);
  { telemetry::ScopedTimer t(telemetry::Timer::kProbeEval); }
  EXPECT_EQ(telemetry::counter_value(telemetry::Counter::kPicks), 3u);
  EXPECT_EQ(telemetry::gauge_value(telemetry::Gauge::kCompression), 3.5);
  const auto stats = telemetry::timer_stats(telemetry::Timer::kProbeEval);
  EXPECT_EQ(stats.count, 1u);
  EXPECT_LE(stats.min_ns, stats.max_ns);
  telemetry::reset_metrics();
  EXPECT_EQ(telemetry::counter_value(telemetry::Counter::kPicks), 0u);
  EXPECT_EQ(telemetry::timer_stats(telemetry::Timer::kProbeEval).count, 0u);
  telemetry::set_metrics_enabled(false);
}

TEST(TelemetryTest, MetricsReportIsValidJson) {
  telemetry::set_metrics_enabled(true);
  telemetry::reset_metrics();
  telemetry::add(telemetry::Counter::kProbes, 7);
  telemetry::set_gauge(telemetry::Gauge::kLambda, 0.25);
  { telemetry::ScopedTimer t(telemetry::Timer::kGemm); }
  const Json report = Json::parse(telemetry::metrics_to_json().dump());
  EXPECT_EQ(report.at("counters").at("ccq.probes").as_double(), 7.0);
  EXPECT_EQ(report.at("gauges").at("ccq.lambda").as_double(), 0.25);
  EXPECT_EQ(report.at("timers").at("gemm").at("count").as_double(), 1.0);
  EXPECT_TRUE(report.at("timers").at("gemm").contains("histogram_ns"));
  telemetry::reset_metrics();
  telemetry::set_metrics_enabled(false);
}

// ---- observers -------------------------------------------------------------

struct CountingObserver : CcqObserver {
  int probes = 0;
  int picks = 0;
  int recovery_epochs = 0;
  std::vector<std::size_t> picked_layers;

  void on_probe(const ProbeEvent& event) override {
    ++probes;
    EXPECT_EQ(event.probabilities.size(), event.pi.size());
    EXPECT_GE(event.loss, 0.0f);
  }
  void on_pick(const PickEvent& event) override {
    ++picks;
    picked_layers.push_back(event.layer);
    EXPECT_GT(event.new_bits, 0);
  }
  void on_recovery_epoch(const RecoveryEpochEvent& event) override {
    ++recovery_epochs;
    EXPECT_GE(event.global_epoch, 0);
  }
};

TEST(CcqControllerTest, ObserverSeesEveryEvent) {
  Fixture f = make_fixture();
  CcqController controller(f.model, f.train_set, f.val_set, fast_config());
  CountingObserver counter;
  controller.add_observer(&counter);
  controller.init();
  std::vector<StepRecord> records;
  while (!controller.done()) records.push_back(controller.step());
  const CcqResult result = controller.result();

  EXPECT_EQ(counter.picks, static_cast<int>(result.steps.size()));
  EXPECT_EQ(counter.probes,
            static_cast<int>(result.steps.size()) *
                fast_config().probes_per_step);
  // Every epoch on the curve is a recovery epoch (initial ones included).
  EXPECT_EQ(counter.recovery_epochs, static_cast<int>(result.curve.size()));
  ASSERT_EQ(counter.picked_layers.size(), result.steps.size());
  for (std::size_t i = 0; i < result.steps.size(); ++i) {
    EXPECT_EQ(counter.picked_layers[i], result.steps[i].layer);
    expect_step_records_equal(records[i], result.steps[i]);
  }
}

TEST(CcqControllerTest, ShimMatchesControllerLoop) {
  Fixture a = make_fixture();
  Fixture b = make_fixture();
  const CcqResult via_shim =
      run_ccq(a.model, a.train_set, a.val_set, fast_config());
  CcqController controller(b.model, b.train_set, b.val_set, fast_config());
  controller.init();
  while (!controller.done()) controller.step();
  const CcqResult via_controller = controller.result();

  ASSERT_EQ(via_shim.steps.size(), via_controller.steps.size());
  for (std::size_t i = 0; i < via_shim.steps.size(); ++i) {
    expect_step_records_equal(via_shim.steps[i], via_controller.steps[i]);
  }
  EXPECT_EQ(via_shim.final_accuracy, via_controller.final_accuracy);
  EXPECT_EQ(via_shim.final_bits, via_controller.final_bits);
}

// ---- trace sink ------------------------------------------------------------

TEST(CcqControllerTest, TraceSchemaCoversEveryEvent) {
  const std::string path = temp_path("ccq_trace_test.jsonl");
  telemetry::set_trace_path(path);
  Fixture f = make_fixture();
  CcqConfig config = fast_config();
  config.max_steps = 2;
  CcqController controller(f.model, f.train_set, f.val_set, config);
  controller.init();
  while (!controller.done()) controller.step();
  const CcqResult result = controller.result();
  telemetry::set_trace_path("");  // disable + close before reading

  std::ifstream is(path);
  ASSERT_TRUE(is.good());
  int probes = 0, picks = 0, recovery = 0;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    const Json record = Json::parse(line);
    const std::string event = record.at("event").as_string();
    EXPECT_TRUE(record.contains("step"));
    if (event == "probe") {
      ++probes;
      EXPECT_TRUE(record.contains("layer_name"));
      EXPECT_TRUE(record.contains("loss"));
      EXPECT_TRUE(record.contains("lambda"));
      EXPECT_EQ(record.at("probs").size(), f.model.registry().size());
      EXPECT_EQ(record.at("pi").size(), f.model.registry().size());
    } else if (event == "pick") {
      ++picks;
      EXPECT_TRUE(record.contains("new_bits"));
      EXPECT_TRUE(record.contains("compression"));
      EXPECT_EQ(record.at("probs").size(), f.model.registry().size());
    } else if (event == "recovery_epoch") {
      ++recovery;
      EXPECT_TRUE(record.contains("train_loss"));
      EXPECT_TRUE(record.contains("val_acc"));
      EXPECT_TRUE(record.contains("lr"));
    } else {
      ADD_FAILURE() << "unknown trace event: " << event;
    }
  }
  EXPECT_EQ(picks, static_cast<int>(result.steps.size()));
  EXPECT_EQ(probes,
            static_cast<int>(result.steps.size()) * config.probes_per_step);
  EXPECT_EQ(recovery, static_cast<int>(result.curve.size()));
  std::remove(path.c_str());
}

// ---- stop/resume -----------------------------------------------------------

TEST(CcqControllerTest, StopResumeIsBitIdentical) {
  const std::string snapshot = temp_path("ccq_resume_test.snap");
  const std::string state = temp_path("ccq_resume_test.state");

  // Reference: one uninterrupted run.
  Fixture full = make_fixture();
  CcqController full_controller(full.model, full.train_set, full.val_set,
                                fast_config());
  full_controller.init();
  std::vector<StepRecord> full_records;
  while (!full_controller.done()) {
    full_records.push_back(full_controller.step());
  }
  const CcqResult full_result = full_controller.result();
  ASSERT_GE(full_records.size(), 4u);

  // Interrupted run: stop mid-run at a step boundary, persist both
  // halves of the state (model snapshot + controller loop state).
  const std::size_t stop_after = 2;
  Fixture first = make_fixture();
  std::vector<StepRecord> records;
  {
    CcqController controller(first.model, first.train_set, first.val_set,
                             fast_config());
    controller.init();
    for (std::size_t i = 0; i < stop_after; ++i) {
      records.push_back(controller.step());
    }
    save_snapshot(first.model, snapshot);
    controller.save_state(state);
  }  // controller (and its workspace) destroyed: a genuine cold resume

  // Resume into a fresh, never-pretrained model of the same structure.
  Fixture resumed = make_fixture(/*pretrain=*/false);
  ASSERT_TRUE(load_snapshot(resumed.model, snapshot));
  CcqController controller(resumed.model, resumed.train_set, resumed.val_set,
                           fast_config());
  ASSERT_TRUE(controller.load_state(state));
  EXPECT_EQ(controller.steps_completed(), static_cast<int>(stop_after));
  EXPECT_EQ(controller.baseline_accuracy(), full_result.baseline_accuracy);
  while (!controller.done()) records.push_back(controller.step());
  const CcqResult resumed_result = controller.result();

  // The concatenated step sequence must match the uninterrupted run
  // field for field — same layers, same probabilities, same accuracies.
  ASSERT_EQ(records.size(), full_records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    expect_step_records_equal(records[i], full_records[i]);
  }
  EXPECT_EQ(resumed_result.final_accuracy, full_result.final_accuracy);
  EXPECT_EQ(resumed_result.final_compression, full_result.final_compression);
  EXPECT_EQ(resumed_result.final_bits, full_result.final_bits);

  std::remove(snapshot.c_str());
  std::remove(state.c_str());
}

TEST(CcqControllerTest, LoadStateMissingFileReturnsFalse) {
  Fixture f = make_fixture(/*pretrain=*/false);
  CcqController controller(f.model, f.train_set, f.val_set, fast_config());
  EXPECT_FALSE(controller.load_state(temp_path("ccq_no_such_state.bin")));
  EXPECT_FALSE(controller.initialized());
}

TEST(CcqControllerTest, StepBeforeInitThrows) {
  Fixture f = make_fixture(/*pretrain=*/false);
  CcqController controller(f.model, f.train_set, f.val_set, fast_config());
  EXPECT_THROW(controller.step(), Error);
  EXPECT_THROW(controller.save_state(temp_path("ccq_uninit.state")), Error);
}

// ---- serving counters ------------------------------------------------------

TEST(ServeTelemetryTest, BatchesInlineCountsOnlyBatchesAnInferCallerRan) {
  // On an idle server a blocking `infer` finds a slot free and runs its
  // own batch, and a `submit` is always run by a worker: serve.batches
  // counts both kinds, serve.batches_inline and its per-model twin only
  // the first.
  models::ModelConfig mc;
  mc.num_classes = 4;
  mc.image_size = 8;
  mc.width_multiplier = 0.25f;
  quant::QuantFactory factory{.policy = quant::Policy::kMinMax};
  auto model =
      models::make_simple_cnn(mc, factory, quant::BitLadder({8, 4}));
  quant::LayerRegistry& registry = model.registry();
  for (std::size_t i = 0; i < registry.size(); ++i) {
    registry.set_ladder_pos(i, 0);
  }
  Tensor calib({4, 3, 8, 8});
  calib.fill(0.5f);
  Workspace calib_ws;
  model.set_training(true);
  model.forward(calib, calib_ws);
  model.set_training(false);

  telemetry::set_metrics_enabled(true);
  telemetry::reset_metrics();
  {
    serve::ServeConfig config;
    config.workers = 2;
    serve::InferenceServer server(config);
    const serve::ModelHandle handle =
        server.load("inline_probe", hw::IntegerNetwork::compile(model));
    Tensor sample({3, 8, 8});
    sample.fill(0.25f);
    Tensor out;
    Workspace ws;
    for (int i = 0; i < 5; ++i) server.infer(handle, sample, out, ws);
    for (int i = 0; i < 3; ++i) server.submit(handle, sample, out).get();
    server.shutdown();
  }
  EXPECT_EQ(telemetry::counter_value(telemetry::Counter::kServeBatches), 8u);
  EXPECT_EQ(telemetry::counter_value(telemetry::Counter::kServeBatchesInline),
            5u);
  const int named = telemetry::find_named_metric(
      telemetry::NamedKind::kCounter, "serve.inline_probe.batches_inline");
  ASSERT_GE(named, 0);
  EXPECT_EQ(telemetry::named_counter_value(named), 5u);
  const Json report = Json::parse(telemetry::metrics_to_json().dump());
  EXPECT_EQ(report.at("counters").at("serve.batches_inline").as_double(), 5.0);
  EXPECT_EQ(report.at("counters")
                .at("serve.inline_probe.batches_inline")
                .as_double(),
            5.0);
  telemetry::reset_metrics();
  telemetry::set_metrics_enabled(false);
}

TEST(NamedMetricsTest, CapacityExhaustionDisablesInsteadOfThrowing) {
  // The serving stack registers per-model series at model-load time; a
  // telemetry capacity limit must degrade that model's metrics to
  // no-ops, never fail the load.  Fill the counter table …
  using telemetry::NamedKind;
  int last = -1;
  for (std::size_t i = 0; i < telemetry::kMaxNamedMetrics; ++i) {
    last = telemetry::named_metric(NamedKind::kCounter,
                                   "test.cap." + std::to_string(i));
    if (last < 0) break;  // table partially used by earlier registrants
  }
  // … then one past capacity returns -1 rather than throwing, recording
  // through -1 no-ops, and existing names still resolve to their slots.
  const int overflow =
      telemetry::named_metric(NamedKind::kCounter, "test.cap.overflow");
  EXPECT_EQ(overflow, -1);
  EXPECT_NO_THROW(telemetry::add_named(overflow));
  EXPECT_EQ(telemetry::named_counter_value(overflow), 0u);
  EXPECT_EQ(telemetry::named_metric(NamedKind::kCounter, "test.cap.0"),
            telemetry::find_named_metric(NamedKind::kCounter, "test.cap.0"));
  EXPECT_EQ(telemetry::find_named_metric(NamedKind::kCounter,
                                         "test.cap.overflow"),
            -1);
}

}  // namespace
}  // namespace ccq::core
