// The two workloads.  Both run the same pipeline: set up a CCQ
// experiment (synthetic data, SimpleCNN, pretraining), quantize it with
// Algorithm 1, then export, load and serve the result over TCP.  They
// weigh the phases differently, so that one layer does most of each
// workload's work while another does little:
//
//   quantize   repeats {set-up, quantize until done} for the whole
//              interval, then serves the result for a quarter of it.
//              Pretraining and the CCQ loop (core, float nn/tensor)
//              dominate; serving does little.
//   serve-tcp  quantizes once (3 steps, untimed), then times 11 server
//              set-ups and serves for the whole interval.  The flush
//              policy, socket and codec dominate; CCQ runs once.
#include <memory>

#include "ccq/common/telemetry.hpp"
#include "harness.hpp"

namespace perfbench {
namespace {

using namespace ccq;

constexpr int kMinReps = 3;       ///< quantize repetitions per untraced run
constexpr int kServeSteps = 3;    ///< CCQ step budget of serve-tcp's model
constexpr int kServerSetups = 11;  ///< serve-tcp set-ups (setup_s median)

/// The traced quantize pass: the program's telemetry on and the
/// harness's spans recorded.
void quantize_traced(Experiment& experiment, int max_steps, Json& out) {
  SpanLog spans(1024);
  telemetry::reset_metrics();
  telemetry::set_metrics_enabled(true);
  out.set("ccq_traced", quantize(experiment, max_steps, &spans));
  telemetry::set_metrics_enabled(false);
  out.set("ccq_telemetry", telemetry::metrics_to_json());
  Json rows = Json::array();
  spans.append_to(rows);
  out.set("ccq_spans", std::move(rows));
}

}  // namespace

void run_quantize(const Options& options, Json& out) {
  Json reps = Json::array();
  Json setups = Json::array();
  const auto timed_set_up = [&setups] {
    const std::uint64_t t0 = now_ns();
    auto experiment = set_up_experiment();
    setups.push_back(seconds_between(t0, now_ns()));
    return experiment;
  };

  std::unique_ptr<Experiment> experiment;
  if (!options.trace) {
    const std::uint64_t start = now_ns();
    for (int rep = 0; rep < kMinReps ||
                      seconds_between(start, now_ns()) < options.seconds;
         ++rep) {
      experiment = timed_set_up();
      reps.push_back(quantize(*experiment, -1, nullptr));
    }
  } else {
    // One untraced repetition is the reference for the traced one, which
    // runs from an identical set-up.
    reps.push_back(quantize(*timed_set_up(), -1, nullptr));
    experiment = timed_set_up();
    quantize_traced(*experiment, -1, out);
  }
  out.set("setup_s", std::move(setups));
  out.set("ccq_reps", std::move(reps));
  out.set("serve", serve(*experiment, options, 1, options.seconds / 4));
}

void run_serve_tcp(const Options& options, Json& out) {
  Json reps = Json::array();
  std::unique_ptr<Experiment> experiment = set_up_experiment();
  if (!options.trace) {
    reps.push_back(quantize(*experiment, kServeSteps, nullptr));
  } else {
    reps.push_back(quantize(*set_up_experiment(), kServeSteps, nullptr));
    quantize_traced(*experiment, kServeSteps, out);
  }
  out.set("ccq_reps", std::move(reps));
  Json serving = serve(*experiment, options, kServerSetups, options.seconds);
  out.set("setup_s", serving.at("setup_s"));
  out.set("serve", std::move(serving));
}

}  // namespace perfbench
