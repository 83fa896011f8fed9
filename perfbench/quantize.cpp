// The quantize phase: Algorithm 1 end to end with the
// `ccq run --arch simplecnn` defaults (16x16 synthetic 10-class data,
// width 0.25, PACT, ladder 8,4,2, U=4 probes on 96 samples, adaptive
// recovery of at most 2 epochs, 12 pretraining epochs).  The model is the
// sequential SimpleCNN because the integer engine compiles sequential
// models only, and every workload serves what it quantized.
//
// Adaptive recovery makes the amount of work depend on the data (a data
// seed sweep of `ccq run --max-steps 4` on ResNet-20 ran 5 to 9 recovery
// epochs), so the inputs here are the fixed `ccq run` defaults and every
// experiment does identical work; --seed does not change them.
#include <memory>

#include "ccq/core/controller.hpp"
#include "ccq/core/trainer.hpp"
#include "ccq/data/synthetic.hpp"
#include "ccq/models/simple.hpp"
#include "harness.hpp"

namespace perfbench {
namespace {

using namespace ccq;

core::CcqConfig ccq_config(int max_steps) {
  core::CcqConfig config;
  config.probes_per_step = 4;
  config.probe_samples = 96;
  config.gamma = 4.0;
  config.lambda_start = 0.7;
  config.lambda_end = 0.1;
  config.max_recovery_epochs = 2;
  config.recovery = core::RecoveryMode::kAdaptive;
  config.max_steps = max_steps;
  config.finetune.batch_size = 32;
  config.finetune.sgd = {.lr = 0.01, .momentum = 0.9, .weight_decay = 5e-4};
  config.hybrid_lr.base_lr = 0.01;
  config.seed = 2020;
  return config;
}

/// Spans for the traced pass: probes chain from step() entry through
/// each on_probe callback, recovery epochs from on_pick through each
/// on_recovery_epoch.  The step index is the request id.
class StepSpans : public core::CcqObserver {
 public:
  explicit StepSpans(SpanLog& log) : log_(log) {}

  void begin_step(std::int64_t step_span, int step) {
    step_span_ = step_span;
    step_ = step;
    cursor_ns_ = now_ns();
  }

  void on_probe(const core::ProbeEvent&) override { mark("ccq.probe"); }
  void on_pick(const core::PickEvent&) override { mark("ccq.pick"); }
  void on_recovery_epoch(const core::RecoveryEpochEvent& event) override {
    if (event.step >= 0) mark("ccq.recovery_epoch");
  }

 private:
  void mark(const char* name) {
    if (step_span_ < 0) return;
    const std::uint64_t t = now_ns();
    log_.add(name, cursor_ns_, t, step_span_, static_cast<std::uint64_t>(step_));
    cursor_ns_ = t;
  }

  SpanLog& log_;
  std::int64_t step_span_ = -1;
  int step_ = 0;
  std::uint64_t cursor_ns_ = 0;
};

}  // namespace

std::unique_ptr<Experiment> set_up_experiment() {
  data::SyntheticConfig dc;
  dc.num_classes = 10;
  dc.samples_per_class = 55;
  dc.height = dc.width = 16;
  dc.pixel_noise = 0.38f;
  dc.jitter = 2.6f;
  dc.seed = 1234;
  data::Dataset train = data::make_synthetic_vision(dc);
  data::Dataset val = train.take_tail(train.size() / 5);

  models::ModelConfig mc;
  mc.num_classes = dc.num_classes;
  mc.image_size = 16;
  mc.width_multiplier = 0.25f;
  mc.seed = 7;
  const quant::QuantFactory factory{.policy = quant::Policy::kPact};
  auto experiment = std::make_unique<Experiment>(Experiment{
      std::move(train), std::move(val),
      models::make_simple_cnn(mc, factory, quant::BitLadder({8, 4, 2}))});

  core::TrainConfig pre;
  pre.epochs = 12;
  pre.batch_size = 32;
  pre.sgd = {.lr = 0.03, .momentum = 0.9, .weight_decay = 5e-4};
  pre.lr_decay_every = 8;
  core::pretrain_cached(experiment->model, experiment->train,
                        experiment->val, pre, "");
  return experiment;
}

Json quantize(Experiment& experiment, int max_steps, SpanLog* spans) {
  core::CcqController controller(experiment.model, experiment.train,
                                 experiment.val, ccq_config(max_steps));
  std::unique_ptr<StepSpans> observer;
  if (spans != nullptr) {
    observer = std::make_unique<StepSpans>(*spans);
    controller.add_observer(observer.get());
  }
  const std::uint64_t start = now_ns();
  if (spans != nullptr) {
    const std::int64_t init = spans->open("ccq.init");
    controller.init();
    spans->close(init);
  } else {
    controller.init();
  }
  while (!controller.done()) {
    if (spans != nullptr) {
      const int step = controller.steps_completed();
      const std::int64_t span =
          spans->open("ccq.step", -1, static_cast<std::uint64_t>(step));
      observer->begin_step(span, step);
      controller.step();
      spans->close(span);
    } else {
      controller.step();
    }
  }
  const double quantize_s = seconds_between(start, now_ns());
  const core::CcqResult result = controller.result();

  Json out = Json::object();
  out.set("quantize_s", quantize_s);
  out.set("top1_pct", 100.0 * static_cast<double>(result.final_accuracy));
  out.set("compression_x", result.final_compression);
  out.set("final_bits", json_array(result.final_bits));
  out.set("steps", result.steps.size());
  return out;
}

}  // namespace perfbench
