// The serving phase: the model a workload quantized is exported to a
// packed artifact, loaded back and served from a `TcpServer` on
// 127.0.0.1 with the `ccq serve` defaults.  Two `TcpClient` connections
// each send their next request when the reply lands (a closed loop of 2
// clients), so no batch ever fills and every batch waits out
// max_delay_us: the flush policy, the socket and the codec dominate the
// round trip.
//
// The seed drives the request pool.  Every reply is compared bit for bit
// with `forward_reference` of the network `load_artifact` returns.
#include <cstring>
#include <exception>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ccq/common/exec.hpp"
#include "ccq/common/telemetry.hpp"
#include "ccq/common/workspace.hpp"
#include "ccq/data/synthetic.hpp"
#include "ccq/serve/artifact.hpp"
#include "ccq/serve/net.hpp"
#include "ccq/serve/server.hpp"
#include "harness.hpp"

namespace perfbench {
namespace {

using namespace ccq;
namespace wire = serve::wire;

constexpr std::size_t kPool = 64;         ///< distinct request samples
constexpr std::size_t kForwardBatch = 2;  ///< what two waiting clients form
constexpr double kWarmupS = 0.5;          ///< unmeasured lead-in per phase
constexpr const char* kModel = "bench";

serve::ServeConfig serve_config() {
  serve::ServeConfig config;  // the `ccq serve` defaults
  config.workers = 2;
  config.intra_op_threads = 1;
  return config;
}

struct ServedModel {
  std::string path;             ///< the exported .ccqa
  hw::IntegerNetwork net;       ///< load_artifact(path)
  std::vector<Tensor> samples;  ///< the request pool, CHW each
  Tensor batch;                 ///< the same pool as one NCHW batch
  Tensor reference;             ///< net.forward_reference(batch)
  std::size_t classes = 0;
};

/// Export the experiment's model to the run's temp dir, load it back and
/// draw the request pool from seeded synthetic images of the experiment's
/// geometry.
ServedModel deploy(Experiment& experiment, const Options& options) {
  const std::string path = options.tmp_dir + "/bench.ccqa";
  experiment.model.set_training(false);
  serve::export_artifact(experiment.model, path);
  ServedModel served{path, serve::load_artifact(path), {}, {}, {}, 0};

  data::SyntheticConfig dc;
  dc.num_classes = 10;
  dc.samples_per_class = (kPool + dc.num_classes - 1) / dc.num_classes;
  dc.height = experiment.val.height();
  dc.width = experiment.val.width();
  dc.seed = options.seed;
  const data::Dataset images = data::make_synthetic_vision(dc);
  std::vector<std::size_t> pool;
  for (std::size_t i = 0; i < kPool; ++i) pool.push_back(i);
  served.batch = images.gather(pool).images;
  served.reference = served.net.forward_reference(served.batch);
  served.classes = served.reference.dim(1);
  for (std::size_t i : pool) served.samples.push_back(images.image(i));
  return served;
}

bool matches_reference(const ServedModel& model, std::size_t sample,
                       const float* logits, std::size_t count) {
  return count == model.classes &&
         std::memcmp(logits,
                     model.reference.data().data() + sample * model.classes,
                     model.classes * sizeof(float)) == 0;
}

/// Each served layer's name, bit width and igemm kernel.
Json served_layers(const ServedModel& model) {
  Json layers = Json::array();
  for (std::size_t i = 0; i < model.net.layer_count(); ++i) {
    const hw::IntLayerPlan& plan = model.net.plan(i);
    if (plan.kind != hw::IntLayerPlan::Kind::kConv &&
        plan.kind != hw::IntLayerPlan::Kind::kLinear) {
      continue;
    }
    Json layer = Json::object();
    layer.set("name", plan.name);
    layer.set("weight_bits", plan.weight_bits);
    layer.set("kernel", igemm_kernel_str(plan.igemm_kernel));
    layers.push_back(std::move(layer));
  }
  return layers;
}

/// Operations attempted and failed over the whole phase.  Error replies
/// and mismatches count as failed.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t failed = 0;

  void record(bool admitted_ok, bool correct) {
    ++attempted;
    if (admitted_ok) ++admitted;
    if (!admitted_ok || !correct) ++failed;
  }
  void merge(const Tally& other) {
    attempted += other.attempted;
    admitted += other.admitted;
    failed += other.failed;
  }
  void write(Json& out) const {
    out.set("attempted", static_cast<double>(attempted));
    out.set("admitted", static_cast<double>(admitted));
    out.set("failed", static_cast<double>(failed));
  }
};

// ---- micro-measurements of single layers (traced runs) --------------------

/// Timed `load_artifact(path)` calls.
void time_artifact_loads(const ServedModel& model, SpanLog& spans) {
  for (int i = 0; i < 5; ++i) {
    const std::uint64_t t0 = now_ns();
    const hw::IntegerNetwork net = serve::load_artifact(model.path);
    spans.add("serve.load_artifact", t0, now_ns());
  }
}

/// `IntegerNetwork::forward` on the first kForwardBatch pool samples with
/// a private workspace and one thread, under telemetry so the igemm and
/// requant timers split the time.  Outputs are checked against the
/// reference rows.  Returns the telemetry of the timed calls.
Json time_forward(const ServedModel& model, SpanLog& spans, Tally& tally) {
  const Shape& shape = model.batch.shape();
  Tensor x({kForwardBatch, shape[1], shape[2], shape[3]});
  std::memcpy(x.data().data(), model.batch.data().data(),
              x.numel() * sizeof(float));
  Workspace ws;
  const ExecContext serial;
  for (int i = 0; i < 3; ++i) ws.recycle(model.net.forward(x, ws, serial));

  telemetry::reset_metrics();
  telemetry::set_metrics_enabled(true);
  const std::uint64_t start = now_ns();
  for (int calls = 0; calls < 20 || seconds_between(start, now_ns()) < 1.0;
       ++calls) {
    const std::uint64_t t0 = now_ns();
    Tensor y = model.net.forward(x, ws, serial);
    spans.add("hw.forward", t0, now_ns(), -1, kForwardBatch);
    bool correct = true;
    for (std::size_t s = 0; s < kForwardBatch; ++s) {
      correct = correct && matches_reference(
                               model, s, y.data().data() + s * model.classes,
                               model.classes);
    }
    tally.record(true, correct);
    ws.recycle(std::move(y));
  }
  telemetry::set_metrics_enabled(false);
  return telemetry::metrics_to_json();
}

// ---- the TCP stack and its clients ------------------------------------------

struct TcpStack {
  std::unique_ptr<serve::InferenceServer> server;
  std::unique_ptr<serve::TcpServer> front;

  TcpStack() = default;
  TcpStack(const TcpStack&) = delete;
  TcpStack& operator=(const TcpStack&) = delete;
  ~TcpStack() {
    if (front) front->stop();
    if (server) server->shutdown();
  }
};

wire::InferRequest make_request(const ServedModel& model, std::size_t sample) {
  wire::InferRequest request;
  request.model = kModel;
  const Shape& shape = model.batch.shape();
  request.channels = shape[1];
  request.height = shape[2];
  request.width = shape[3];
  const auto data = model.samples[sample].data();
  request.data.assign(data.begin(), data.end());
  return request;
}

bool reply_correct(const ServedModel& model, std::size_t sample,
                   const wire::InferReply& reply) {
  return reply.ok && matches_reference(model, sample, reply.logits.data(),
                                       reply.logits.size());
}

/// Set-up: server construction, artifact load and listener bind, until
/// the first correct reply over a fresh connection.
std::unique_ptr<TcpStack> start_tcp(
    const ServedModel& model, const std::vector<wire::InferRequest>& requests,
    Json& setups, Tally& tally) {
  const std::uint64_t t0 = now_ns();
  auto stack = std::make_unique<TcpStack>();
  stack->server = std::make_unique<serve::InferenceServer>(serve_config());
  stack->server->load(kModel, model.path, serve::ModelConfig{});
  stack->front = std::make_unique<serve::TcpServer>(*stack->server, 0);
  serve::TcpClient client("127.0.0.1", stack->front->port());
  const bool correct = reply_correct(model, 0, client.infer(requests[0]));
  setups.push_back(seconds_between(t0, now_ns()));
  tally.record(true, correct);
  return stack;
}

/// One closed-loop phase of two blocking clients.  Latencies are kept
/// for round trips started inside the measured interval.  With `spans`,
/// every round trip is also recorded as a span and appended there.
Json drive_tcp(const TcpStack& stack, const ServedModel& model,
               const std::vector<wire::InferRequest>& requests,
               double seconds, Json* spans, Tally& tally) {
  constexpr std::size_t kClients = 2;
  const std::uint64_t measure_start =
      now_ns() + static_cast<std::uint64_t>(kWarmupS * 1e9);
  const std::uint64_t end =
      measure_start + static_cast<std::uint64_t>(seconds * 1e9);
  const std::uint16_t port = stack.front->port();

  struct ClientResult {
    std::vector<std::uint64_t> latency_ns;
    Tally tally;
    std::unique_ptr<SpanLog> spans;
    std::string error;
  };
  std::vector<ClientResult> results(kClients);
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    ClientResult& result = results[c];
    result.latency_ns.reserve(static_cast<std::size_t>(seconds * 4000));
    if (spans != nullptr) {
      result.spans = std::make_unique<SpanLog>(
          static_cast<std::size_t>((seconds + kWarmupS) * 4000));
    }
    clients.emplace_back([&, c] {
      try {
        serve::TcpClient client("127.0.0.1", port);
        for (std::uint64_t i = c;; i += kClients) {
          const std::uint64_t t0 = now_ns();
          if (t0 >= end) break;
          const std::size_t sample = i % kPool;
          bool admitted = false, correct = false;
          try {
            const wire::InferReply reply = client.infer(requests[sample]);
            admitted = reply.ok;
            correct = reply_correct(model, sample, reply);
          } catch (const wire::ProtocolError&) {
          }
          const std::uint64_t t1 = now_ns();
          result.tally.record(admitted, correct);
          if (result.spans) result.spans->add("net.infer", t0, t1, -1, i);
          if (t0 >= measure_start) result.latency_ns.push_back(t1 - t0);
        }
      } catch (const std::exception& e) {
        result.error = e.what();
        result.tally.record(false, false);
      }
    });
  }
  for (std::thread& t : clients) t.join();

  std::vector<std::uint64_t> latency_ns;
  Json errors = Json::array();
  for (ClientResult& result : results) {
    latency_ns.insert(latency_ns.end(), result.latency_ns.begin(),
                      result.latency_ns.end());
    tally.merge(result.tally);
    if (result.spans) result.spans->append_to(*spans);
    if (!result.error.empty()) errors.push_back(result.error);
  }
  Json out = Json::object();
  out.set("latency_ns", json_array(latency_ns));
  out.set("errors", std::move(errors));
  return out;
}

/// `wire::encode_request` + `decode_request` + `encode_reply` +
/// `decode_reply` on the workload's own frames.  One span covers one pass
/// over the pool; the first pass is checked for a lossless round trip.
void time_codec(const ServedModel& model,
                const std::vector<wire::InferRequest>& requests,
                SpanLog& spans, Tally& tally) {
  std::vector<wire::InferReply> replies(kPool);
  for (std::size_t i = 0; i < kPool; ++i) {
    replies[i].ok = true;
    replies[i].version = 1;
    const float* row = model.reference.data().data() + i * model.classes;
    replies[i].logits.assign(row, row + model.classes);
  }
  const std::uint64_t start = now_ns();
  for (std::uint64_t pass = 0;
       pass < 100 || seconds_between(start, now_ns()) < 0.5; ++pass) {
    const std::uint64_t t0 = now_ns();
    for (std::size_t i = 0; i < kPool; ++i) {
      const wire::InferRequest request =
          wire::decode_request(wire::encode_request(requests[i]));
      const wire::InferReply reply =
          wire::decode_reply(wire::encode_reply(replies[i]));
      if (pass == 0) {
        tally.record(true, request.data == requests[i].data &&
                               reply_correct(model, i, reply));
      }
    }
    spans.add("protocol.codec", t0, now_ns(), -1, pass);
  }
}

Json named_timer(const std::string& name) {
  const int id = telemetry::find_named_metric(telemetry::NamedKind::kTimer,
                                              name);
  const telemetry::TimerStats stats = telemetry::named_timer_stats(id);
  Json out = Json::object();
  out.set("count", static_cast<double>(stats.count));
  out.set("total_ns", static_cast<double>(stats.total_ns));
  return out;
}

}  // namespace

Json serve(Experiment& experiment, const Options& options, int setups,
           double seconds) {
  Json out = Json::object();
  const ServedModel served = deploy(experiment, options);
  out.set("layers", served_layers(served));
  std::vector<wire::InferRequest> requests;
  for (std::size_t i = 0; i < kPool; ++i) {
    requests.push_back(make_request(served, i));
  }
  Tally tally;
  Json setup_s = Json::array();
  for (int i = 1; i < setups; ++i) start_tcp(served, requests, setup_s, tally);
  std::unique_ptr<TcpStack> stack =
      start_tcp(served, requests, setup_s, tally);
  out.set("setup_s", std::move(setup_s));
  out.set("max_batch", stack->server->resolve(kModel).config().max_batch);

  if (!options.trace) {
    out.set("untraced",
            drive_tcp(*stack, served, requests, seconds, nullptr, tally));
    tally.write(out);
    return out;
  }
  // Half the interval untraced, half traced with the program's telemetry
  // on (the difference is the tracing overhead), then single layers
  // through standalone calls on an idle host.
  const double half = seconds / 2;
  out.set("untraced",
          drive_tcp(*stack, served, requests, half, nullptr, tally));
  Json spans = Json::array();
  telemetry::reset_metrics();
  telemetry::set_metrics_enabled(true);
  Json traced = drive_tcp(*stack, served, requests, half, &spans, tally);
  telemetry::set_metrics_enabled(false);
  traced.set("telemetry", telemetry::metrics_to_json());
  traced.set("server_latency",
             named_timer(std::string("serve.") + kModel + ".latency"));
  out.set("traced", std::move(traced));
  stack.reset();

  SpanLog layer_spans(32768);
  time_artifact_loads(served, layer_spans);
  out.set("forward_telemetry", time_forward(served, layer_spans, tally));
  time_codec(served, requests, layer_spans, tally);
  out.set("codec_frames", kPool);
  layer_spans.append_to(spans);
  out.set("spans", std::move(spans));
  tally.write(out);
  return out;
}

}  // namespace perfbench
