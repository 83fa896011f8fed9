// ccq — command-line front end for the library.
//
//   ccq run    --arch resnet20 --policy pact --ladder 8,4,2 …
//       Pretrain (or load) a baseline, run the CCQ controller, print the
//       per-layer allocation; optionally save a snapshot / JSON record,
//       a JSONL event trace (--trace) and a metrics report
//       (--metrics-out); --state persists the controller loop state so
//       the run can be continued with `resume`.
//   ccq resume --snapshot s.bin --state st.bin …
//       Continue an interrupted run bit-identically from a
//       snapshot+state pair saved by `run` (same model/data flags).
//   ccq oneshot --arch … --policy … --bits-pos N
//       One-shot quantize + fine-tune (the baseline scheme).
//   ccq power  --arch resnet20
//       Iso-throughput power of fp32 / partial / fully-quantized configs.
//   ccq export --snapshot s.bin --out model.ccqa …
//       Pack a quantized snapshot into the bit-packed serving artifact
//       (weights stored at their final ladder precision; same model/data
//       flags as the run that produced the snapshot).
//   ccq inspect --artifact model.ccqa
//       Describe a packed artifact without serving it: format version,
//       per-layer bits, requant coverage, and the packed size against
//       the fp32 equivalent of the same tensors.
//   ccq serve --listen 7070 [--artifact model.ccqa] [--name m] …
//       Host a model behind the TCP front end (serve/net.hpp) until
//       stdin closes; clients speak the length-prefixed wire protocol
//       of serve/protocol.hpp (documented in docs/SERVING.md).  `serve`
//       and `serve-bench` refuse a flag they do not read, before the
//       server starts.
//   ccq serve-bench [--artifact model.ccqa] [--tcp] [--rate R] …
//       Drive the registry-routed inference server with concurrent
//       producers — closed loop by default, open loop at a fixed
//       offered rate with --rate, over a socket with --tcp — and
//       report throughput / p50/p99 latency / rejections.
//   ccq policies
//       List the available quantization policies.
//
// All experiments run on the procedural synthetic datasets (see
// DESIGN.md §2); sizes are flags.
#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <limits>
#include <memory>

#include "ccq/common/args.hpp"
#include "ccq/common/env.hpp"
#include "ccq/common/exec.hpp"
#include "ccq/common/json.hpp"
#include "ccq/common/table.hpp"
#include "ccq/common/telemetry.hpp"
#include "ccq/core/baselines.hpp"
#include "ccq/core/ccq.hpp"
#include "ccq/core/controller.hpp"
#include "ccq/core/observers.hpp"
#include "ccq/core/snapshot.hpp"
#include "ccq/data/synthetic.hpp"
#include "ccq/hw/mac_model.hpp"
#include "ccq/models/resnet.hpp"
#include "ccq/models/simple.hpp"
#include "ccq/serve/artifact.hpp"
#include "ccq/serve/harness.hpp"
#include "ccq/serve/net.hpp"

namespace {

using namespace ccq;

struct Experiment {
  data::Dataset train;
  data::Dataset val;
  models::QuantModel model;
};

models::QuantModel build_model(const Args& args, std::size_t classes,
                               const quant::BitLadder& ladder) {
  const std::string arch = args.get("arch", "resnet20");
  quant::QuantFactory factory{
      .policy = quant::policy_from_str(args.get("policy", "pact"))};
  models::ModelConfig config;
  config.num_classes = classes;
  config.image_size = args.get_size("image", 16);
  config.width_multiplier =
      static_cast<float>(args.get_double("width", 0.25));
  config.seed = static_cast<std::uint64_t>(args.get_int("seed", 7));
  if (arch == "resnet20") return models::make_resnet20(config, factory, ladder);
  if (arch == "resnet18") return models::make_resnet18(config, factory, ladder);
  if (arch == "resnet50") return models::make_resnet50(config, factory, ladder);
  if (arch == "simplecnn") {
    return models::make_simple_cnn(config, factory, ladder);
  }
  if (arch == "mlp") {
    return models::make_mlp(config, factory, ladder,
                            args.get_size("hidden", 64));
  }
  throw Error("unknown --arch " + arch +
              " (resnet20|resnet18|resnet50|simplecnn|mlp)");
}

Experiment prepare(const Args& args, bool pretrain = true) {
  data::SyntheticConfig dc;
  dc.num_classes = args.get_size("classes", 10);
  dc.samples_per_class = args.get_size("samples", 55);
  dc.height = dc.width = args.get_size("image", 16);
  dc.pixel_noise = static_cast<float>(args.get_double("noise", 0.38));
  dc.jitter = static_cast<float>(args.get_double("jitter", 2.6));
  dc.seed = static_cast<std::uint64_t>(args.get_int("data-seed", 1234));
  data::Dataset train = data::make_synthetic_vision(dc);
  data::Dataset val = train.take_tail(train.size() / 5);

  const quant::BitLadder ladder(args.get_int_list("ladder", {8, 4, 2}));
  auto model = build_model(args, dc.num_classes, ladder);
  if (!pretrain) {
    // `resume` restores parameters + precision from the snapshot, so the
    // freshly built model only provides the structure.
    return Experiment{std::move(train), std::move(val), std::move(model)};
  }

  core::TrainConfig pre;
  pre.epochs = static_cast<int>(args.get_size("pretrain-epochs", 12));
  pre.batch_size = args.get_size("batch", 32);
  pre.sgd = {.lr = args.get_double("pretrain-lr", 0.03),
             .momentum = 0.9,
             .weight_decay = 5e-4};
  pre.lr_decay_every = std::max(2, 2 * pre.epochs / 3);
  const auto baseline = core::pretrain_cached(
      model, train, val, pre, args.get("cache", ""));
  std::cout << "fp32 baseline top-1: " << 100.0f * baseline.accuracy << "\n";
  return Experiment{std::move(train), std::move(val), std::move(model)};
}

core::CcqConfig ccq_config_from(const Args& args) {
  core::CcqConfig config;
  config.probes_per_step = static_cast<int>(args.get_size("probes", 4));
  config.probe_samples = args.get_size("probe-samples", 96);
  config.gamma = args.get_double("gamma", 4.0);
  config.lambda_start = args.get_double("lambda-start", 0.7);
  config.lambda_end = args.get_double("lambda-end", 0.1);
  config.memory_aware = !args.get_flag("no-memory");
  config.max_recovery_epochs =
      static_cast<int>(args.get_size("max-recovery", 2));
  config.recovery = args.get_flag("manual-recovery")
                        ? core::RecoveryMode::kManual
                        : core::RecoveryMode::kAdaptive;
  config.manual_recovery_epochs =
      static_cast<int>(args.get_size("manual-epochs", 1));
  config.max_steps = args.get_int("max-steps", -1);
  config.finetune.batch_size = args.get_size("batch", 32);
  config.finetune.sgd = {.lr = args.get_double("finetune-lr", 0.01),
                         .momentum = 0.9,
                         .weight_decay = 5e-4};
  config.hybrid_lr.base_lr = args.get_double("finetune-lr", 0.01);
  config.seed = static_cast<std::uint64_t>(args.get_int("seed", 2020));
  return config;
}

// Telemetry flags shared by `run` and `resume`: --trace enables the
// JSONL event sink, --metrics-out enables the counters/timers registry
// (written as JSON when the run finishes).
void configure_telemetry(const Args& args) {
  const std::string trace = args.get("trace", "");
  if (!trace.empty()) telemetry::set_trace_path(trace);
  if (!args.get("metrics-out", "").empty()) {
    telemetry::set_metrics_enabled(true);
  }
}

void finish_telemetry(const Args& args) {
  telemetry::flush_trace();
  const std::string metrics = args.get("metrics-out", "");
  if (!metrics.empty()) {
    CCQ_CHECK(telemetry::save_metrics(metrics), "cannot write " + metrics);
    std::cout << "metrics -> " << metrics << "\n";
  }
}

// Drive the controller to completion, print the allocation table and
// persist whatever --snapshot/--state/--out ask for.
int finish_run(const Args& args, Experiment& exp,
               core::CcqController& controller) {
  while (!controller.done()) controller.step();
  const auto result = controller.result();

  Table table({"layer", "bits", "weights"});
  for (std::size_t i = 0; i < exp.model.registry().size(); ++i) {
    const auto& unit = exp.model.registry().unit(i);
    table.add_row({unit.name, std::to_string(result.final_bits[i]),
                   std::to_string(unit.weight_count)});
  }
  table.print(std::cout);
  std::cout << "baseline@" << exp.model.registry().ladder().initial_bits()
            << "b " << 100.0f * result.baseline_accuracy << " -> final "
            << 100.0f * result.final_accuracy << " top-1 at "
            << result.final_compression << "x compression ("
            << result.steps.size() << " steps)\n";

  const std::string snapshot = args.get("snapshot", "");
  if (!snapshot.empty()) {
    core::save_snapshot(exp.model, snapshot);
    std::cout << "snapshot -> " << snapshot << "\n";
  }
  const std::string state = args.get("state", "");
  if (!state.empty()) {
    CCQ_CHECK(!snapshot.empty(),
              "--state needs --snapshot (resume requires both)");
    controller.save_state(state);
    std::cout << "state -> " << state << "\n";
  }
  const std::string out = args.get("out", "");
  if (!out.empty()) {
    Json record = Json::object();
    record.set("final_top1", 100.0 * result.final_accuracy);
    record.set("compression", result.final_compression);
    Json bits = Json::array();
    for (int b : result.final_bits) bits.push_back(b);
    record.set("bits", std::move(bits));
    CCQ_CHECK(record.save(out), "cannot write " + out);
    std::cout << "json -> " << out << "\n";
  }
  finish_telemetry(args);
  return 0;
}

int cmd_run(const Args& args) {
  configure_telemetry(args);
  Experiment exp = prepare(args);
  const auto config = ccq_config_from(args);
  core::CcqController controller(exp.model, exp.train, exp.val, config);
  core::CliProgressObserver progress(std::cout, args.get_flag("verbose"));
  if (args.get_flag("progress")) controller.add_observer(&progress);
  controller.init();
  return finish_run(args, exp, controller);
}

int cmd_resume(const Args& args) {
  configure_telemetry(args);
  const std::string snapshot = args.get("snapshot", "");
  const std::string state = args.get("state", "");
  CCQ_CHECK(!snapshot.empty() && !state.empty(),
            "resume needs --snapshot and --state from a previous run");
  // Rebuild the model structure and datasets from the same flags as the
  // original run; parameters + precision come from the snapshot, the
  // loop state (RNG, Hedge weights, optimizer momentum, …) from --state.
  Experiment exp = prepare(args, /*pretrain=*/false);
  CCQ_CHECK(core::load_snapshot(exp.model, snapshot),
            "snapshot not found: " + snapshot);
  const auto config = ccq_config_from(args);
  core::CcqController controller(exp.model, exp.train, exp.val, config);
  core::CliProgressObserver progress(std::cout, args.get_flag("verbose"));
  if (args.get_flag("progress")) controller.add_observer(&progress);
  CCQ_CHECK(controller.load_state(state), "state not found: " + state);
  std::cout << "resumed at step " << controller.steps_completed() << " ("
            << (controller.done() ? "already done" : "continuing") << ")\n";
  return finish_run(args, exp, controller);
}

int cmd_oneshot(const Args& args) {
  Experiment exp = prepare(args);
  core::TrainConfig ft;
  ft.epochs = static_cast<int>(args.get_size("finetune-epochs", 6));
  ft.batch_size = args.get_size("batch", 32);
  ft.sgd = {.lr = args.get_double("finetune-lr", 0.01),
            .momentum = 0.9,
            .weight_decay = 5e-4};
  const std::size_t pos =
      args.get_size("bits-pos", exp.model.registry().ladder().size() - 1);
  const auto r =
      core::one_shot_quantize(exp.model, exp.train, exp.val, ft, pos);
  std::cout << "one-shot @"
            << exp.model.registry().ladder().bits_at(pos) << "b: top-1 "
            << 100.0f * r.accuracy << ", compression " << r.compression
            << "x\n";
  return 0;
}

int cmd_power(const Args& args) {
  const quant::BitLadder ladder(args.get_int_list("ladder", {8, 4, 2}));
  auto model = build_model(args, 10, ladder);
  const double rate = args.get_double("rate", 1000.0);
  Table table({"configuration", "total mW", "first+last mW"});
  auto report = [&](const std::string& name,
                    const std::vector<hw::LayerMacs>& layers) {
    const auto r = hw::network_power(layers, rate);
    table.add_row({name, Table::fmt(1e3 * r.total_w, 3),
                   Table::fmt(1e3 * (r.first_layer_w + r.last_layer_w), 3)});
  };
  report("fp32", hw::uniform_profile(model.registry(), 32, 32, false));
  for (int bits : {8, 4, 2}) {
    report("fp-" + std::to_string(bits) + "b-fp",
           hw::uniform_profile(model.registry(), bits, bits, true));
    report("uniform " + std::to_string(bits) + "b",
           hw::uniform_profile(model.registry(), bits, bits, false));
  }
  table.print(std::cout);
  return 0;
}

int cmd_export(const Args& args) {
  const std::string snapshot = args.get("snapshot", "");
  CCQ_CHECK(!snapshot.empty(),
            "export needs --snapshot from a previous run (plus the same "
            "model/data flags)");
  const std::string out = args.get("out", "model.ccqa");
  Experiment exp = prepare(args, /*pretrain=*/false);
  CCQ_CHECK(core::load_snapshot(exp.model, snapshot),
            "snapshot not found: " + snapshot);
  serve::export_artifact(exp.model, out);
  const auto artifact_bytes = std::filesystem::file_size(out);
  const auto snapshot_bytes = std::filesystem::file_size(snapshot);
  std::cout << "artifact -> " << out << " (" << artifact_bytes << " bytes, "
            << Table::fmt(static_cast<double>(snapshot_bytes) /
                              static_cast<double>(artifact_bytes),
                          2)
            << "x smaller than the " << snapshot_bytes
            << "-byte float snapshot)\n";
  return 0;
}

int cmd_inspect(const Args& args) {
  const std::string path = args.get("artifact", "");
  CCQ_CHECK(!path.empty(), "inspect needs --artifact <model.ccqa>");
  const serve::ArtifactInfo info = serve::inspect_artifact(path);
  std::cout << path << ": CCQA v" << info.version << ", " << info.layer_count
            << " layers, " << info.file_bytes << " bytes ("
            << info.payload_bytes << " payload)\n";
  const auto bits = [](int b) { return b == 0 ? "-" : std::to_string(b); };
  Table layers({"layer", "kind", "w bits", "act bits", "requant"});
  for (const serve::ArtifactLayerInfo& layer : info.layers) {
    layers.add_row({layer.name, layer.kind, bits(layer.weight_bits),
                    bits(layer.act_bits), layer.requant_fused ? "y" : "n"});
  }
  layers.print(std::cout);
  std::cout << "packed "
            << Table::fmt(static_cast<double>(info.float_bytes) /
                              static_cast<double>(info.file_bytes),
                          2)
            << "x smaller than the " << info.float_bytes
            << "-byte fp32 equivalent of the same tensors\n";
  return 0;
}

// Per-model knobs shared by `serve` and `serve-bench`.  Every flag
// defaults to the `ModelConfig{}` value, so both commands serve what an
// embedding application serves (usage() prints the same defaults).
serve::ModelConfig model_config_from(const Args& args) {
  serve::ModelConfig mc;
  mc.max_batch = args.get_size("max-batch", mc.max_batch);
  mc.max_delay_us = args.get_size("max-delay-us", mc.max_delay_us);
  mc.queue_capacity = args.get_size("queue-cap", mc.queue_capacity);
  mc.weight = args.get_double("weight", mc.weight);
  mc.slo_us = args.get_size("slo-us", mc.slo_us);
  return mc;
}

// Shared by `serve` and `serve-bench`: the network to host — a packed
// artifact when --artifact is given, else a random-weight model
// quantized to the ladder floor (serving cost does not depend on what
// the weights are).
hw::IntegerNetwork serve_network(const Args& args) {
  const std::string artifact = args.get("artifact", "");
  if (!artifact.empty()) return serve::load_artifact(artifact);
  const quant::BitLadder ladder(args.get_int_list("ladder", {8, 4, 2}));
  auto model = build_model(args, 10, ladder);
  quant::LayerRegistry& registry = model.registry();
  for (std::size_t i = 0; i < registry.size(); ++i) {
    registry.set_ladder_pos(i, registry.ladder().size() - 1);
  }
  return hw::IntegerNetwork::compile(model);
}

std::string serve_model_name(const Args& args) {
  const std::string name = args.get("name", "");
  if (!name.empty()) return name;
  const std::string artifact = args.get("artifact", "");
  if (!artifact.empty()) {
    return std::filesystem::path(artifact).stem().string();
  }
  return "model";
}

int cmd_serve(const Args& args) {
  configure_telemetry(args);
  const auto port = args.get_int("listen", -1);
  CCQ_CHECK(port >= 0 && port <= 65535,
            "serve needs --listen <port> (0 picks an ephemeral port)");

  serve::ServeConfig sc;
  sc.workers = args.get_size("workers", 2);
  sc.intra_op_threads = args.get_size("intra-op", 1);
  const serve::ModelConfig mc = model_config_from(args);
  const std::string name = serve_model_name(args);
  hw::IntegerNetwork net = serve_network(args);
  args.reject_unused();
  serve::InferenceServer server(sc);
  const serve::ModelHandle handle = server.load(name, std::move(net), mc);

  serve::TcpServer front(server, static_cast<std::uint16_t>(port));
  std::cout << "serving model \"" << name << "\" v" << handle.version()
            << " on 127.0.0.1:" << front.port() << " (" << sc.workers
            << " workers, max_batch " << mc.max_batch
            << ")\nclose stdin (Ctrl-D) to stop\n";
  // Serve until stdin closes: connection threads do all the work.
  std::cin.ignore(std::numeric_limits<std::streamsize>::max());
  front.stop();
  server.shutdown();
  finish_telemetry(args);
  return 0;
}

int cmd_serve_bench(const Args& args) {
  configure_telemetry(args);
  telemetry::set_metrics_enabled(true);  // latency percentiles need timers
  hw::IntegerNetwork net = serve_network(args);
  CCQ_CHECK(net.plan(0).kind == hw::IntLayerPlan::Kind::kConv,
            "serve-bench drives image models (first layer must be a conv)");

  serve::ServeConfig sc;
  sc.workers = args.get_size("workers", 2);
  sc.intra_op_threads = args.get_size("intra-op", 1);
  const serve::ModelConfig mc = model_config_from(args);
  const std::size_t requests = args.get_size("requests", 512);
  const std::size_t image = args.get_size("image", 16);
  const double rate = args.get_double("rate", 0.0);  // 0 = closed loop
  const bool tcp = args.get_flag("tcp");
  CCQ_CHECK(!(tcp && rate > 0.0),
            "--tcp is closed-loop only (drop --rate for the socket path)");

  serve::HarnessOptions options;
  options.producers = args.get_size("producers", 4);
  options.offered_rps = rate;
  options.priority = serve::priority_from_string(args.get("priority", "normal"));
  options.deadline_us = args.get_size("deadline-us", 0);
  const std::string name = serve_model_name(args);
  args.reject_unused();

  Tensor samples({requests, net.plan(0).in_channels, image, image});
  auto data = samples.data();
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<float>((i * 2654435761u >> 8) & 255u) / 255.0f;
  }

  serve::InferenceServer server(sc);
  server.load(name, std::move(net), mc);
  std::unique_ptr<serve::TcpServer> front;
  std::unique_ptr<serve::ServeHarness> harness;
  if (tcp) {
    front = std::make_unique<serve::TcpServer>(server, 0);
    harness = std::make_unique<serve::ServeHarness>(
        "127.0.0.1", front->port(), name);
  } else {
    harness = std::make_unique<serve::ServeHarness>(server, name);
  }
  const auto report = harness->run(samples, options);
  if (front) front->stop();
  server.shutdown();

  // Exact quantiles in closed-loop/TCP mode; the model's telemetry
  // histogram (factor-of-two buckets) in the open loop, where the
  // harness sheds instead of waiting.
  const char* approx = report.latency_ns.empty() ? "< " : "";
  std::uint64_t p50 = report.latency_quantile_ns(0.5);
  std::uint64_t p99 = report.latency_quantile_ns(0.99);
  if (report.latency_ns.empty()) {
    const int timer = telemetry::find_named_metric(
        telemetry::NamedKind::kTimer, "serve." + name + ".latency");
    const auto latency = telemetry::named_timer_stats(timer);
    p50 = telemetry::approx_quantile(latency, 0.5);
    p99 = telemetry::approx_quantile(latency, 0.99);
  }
  const auto batches = telemetry::timer_stats(telemetry::Timer::kServeBatchSize);
  std::cout << report.requests << " served"
            << (rate > 0.0 ? " (offered " + Table::fmt(rate, 0) + " rps)" : "")
            << ", " << options.producers << " producers, " << sc.workers
            << " workers, max_batch " << mc.max_batch << (tcp ? ", tcp" : "")
            << ":\n  "
            << Table::fmt(static_cast<double>(report.requests) /
                              report.wall_seconds,
                          1)
            << " inf/s, mean batch "
            << Table::fmt(batches.count == 0
                              ? 0.0
                              : static_cast<double>(batches.total_ns) /
                                    static_cast<double>(batches.count),
                          2)
            << "\n  offered " << report.offered << ", admitted "
            << report.admitted << ", rejected " << report.rejected << ", shed "
            << report.shed << ", deadline missed " << report.deadline_missed
            << "\n  latency p50 " << approx << p50 / 1000 << "us, p99 "
            << approx << p99 / 1000 << "us\n";
  finish_telemetry(args);
  return 0;
}

int cmd_policies() {
  for (quant::Policy p :
       {quant::Policy::kDoReFa, quant::Policy::kWrpn, quant::Policy::kPact,
        quant::Policy::kPactSawb, quant::Policy::kLqNets, quant::Policy::kLsq,
        quant::Policy::kMinMax, quant::Policy::kPerChannel}) {
    std::cout << quant::policy_str(p) << "\n";
  }
  return 0;
}

void usage() {
  const serve::ModelConfig mc;
  const std::string model_flags =
      "  --max-batch " + std::to_string(mc.max_batch) + " --max-delay-us " +
      std::to_string(mc.max_delay_us) + " (0 = no batch-fill hold)" +
      " --queue-cap " + std::to_string(mc.queue_capacity) + "\n";
  std::cout <<
      "usage: ccq <command> [--flags]\n"
      "  run       full CCQ pipeline (pretrain + competition/collaboration)\n"
      "  resume    continue a run from --snapshot + --state (bit-identical)\n"
      "  oneshot   one-shot quantize + fine-tune baseline\n"
      "  power     iso-throughput power of precision configurations\n"
      "  export    pack a snapshot into the bit-packed serving artifact\n"
      "  inspect   describe a packed artifact (--artifact model.ccqa)\n"
      "  serve     host a model behind the TCP front end (--listen <port>)\n"
      "  serve-bench  drive the registry-routed inference server\n"
      "  policies  list quantization policies\n"
      "common flags: --arch resnet20|resnet18|resnet50|simplecnn|mlp\n"
      "  --policy pact|dorefa|wrpn|sawb|lqnets|lsq|minmax|perchannel\n"
      "  --ladder 8,4,2  --classes 10  --samples 55  --image 16\n"
      "  --width 0.25  --pretrain-epochs 12  --cache file.bin\n"
      "  --threads N   kernel thread budget (default $CCQ_THREADS or 1;\n"
      "                results are bit-identical for any N)\n"
      "run/resume flags: --gamma 4 --probes 4 --lambda-start 0.7\n"
      "  --lambda-end 0.1 --no-memory --manual-recovery --max-steps N\n"
      "  --snapshot out.bin --state out.state --out record.json\n"
      "  --trace events.jsonl   JSONL event trace (also $CCQ_TRACE)\n"
      "  --metrics-out m.json   counters/timers report (also $CCQ_METRICS)\n"
      "  --progress [--verbose] per-step progress lines\n"
      "export flags: --snapshot s.bin --out model.ccqa\n"
      "serve flags: --listen 7070 --artifact model.ccqa --name m\n"
      "  --workers 2 --intra-op 1\n"
      << model_flags <<
      "  --weight 1.0 (fair-share weight) --slo-us 0 (p99 target gauge)\n"
      "serve-bench flags: --artifact model.ccqa (else random weights)\n"
      "  --workers 2 --intra-op 1\n"
      << model_flags <<
      "  --requests 512 --producers 4\n"
      "  --rate R   open loop at R offered req/s (default: closed loop)\n"
      "  --tcp      drive through a loopback TCP front end\n"
      "  --weight 1.0 --slo-us 0   model SLA knobs (as for serve)\n"
      "  --priority low|normal|high   service class on every request\n"
      "  --deadline-us 0   queueing budget per request (0 = none)\n";
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args(argc, argv);
    // Thread budget for all kernels: --threads beats $CCQ_THREADS beats 1.
    ExecContext::set_global_threads(static_cast<std::size_t>(
        std::max(1, args.get_int("threads", env_int("CCQ_THREADS", 1)))));
    if (args.command() == "run") return cmd_run(args);
    if (args.command() == "resume") return cmd_resume(args);
    if (args.command() == "oneshot") return cmd_oneshot(args);
    if (args.command() == "power") return cmd_power(args);
    if (args.command() == "export") return cmd_export(args);
    if (args.command() == "inspect") return cmd_inspect(args);
    if (args.command() == "serve") return cmd_serve(args);
    if (args.command() == "serve-bench") return cmd_serve_bench(args);
    if (args.command() == "policies") return cmd_policies();
    usage();
    return args.command().empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
