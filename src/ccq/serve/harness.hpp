// ServeHarness: drive a multi-model server with concurrent producers.
//
// Tests, the `ccq serve-bench` CLI and the TCP load generator need the
// same machinery: split a batch of samples across P producer threads,
// route every sample to a *named* model, wait for the replies and hand
// back outputs in sample order — the shape that makes bit-identity
// checks against a direct `IntegerNetwork::forward` one `max_abs_diff`
// call.  On top of the PR-4 closed loop, this version adds:
//
//   * registry routing — the harness targets a model *name*, resolving a
//     fresh handle per submission, so a hot-swap mid-run redirects later
//     submissions to the new version while earlier ones finish on the
//     old.  `HarnessReport::versions` records which version served each
//     sample — the observable a swap test asserts on;
//   * a scripted swap hook — `swap_after`/`on_swap` fire a callback
//     (e.g. `server.load(...)` of v2) exactly once after N admitted
//     submissions, from a producer thread, mid-traffic;
//   * an open loop — `offered_rps > 0` paces submissions at a fixed
//     offered rate instead of waiting for each reply (closed loop
//     measures capacity, open loop measures latency under a load you
//     chose; the serve bench sweeps it).  Open-loop rejections are shed,
//     not retried — that is the point of offered load;
//   * a TCP mode — the same drive through `TcpClient` connections
//     against a `TcpServer` port, one connection per producer;
//   * SLA knobs — a service class per submission (uniform or
//     per-sample) and an optional queueing deadline, plus honest load
//     accounting: `offered` counts every submission *attempt* (a
//     closed-loop retry burst is many offers, not one), `admitted`
//     counts admissions, and `offered == admitted + rejected` always —
//     so a shed rate computed against `offered` reflects the true
//     offered load.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "ccq/serve/server.hpp"

namespace ccq::serve {

struct HarnessOptions {
  std::size_t producers = 1;
  /// 0 = closed loop (submit → wait → next; per-request round-trip
  /// latencies are exact).  > 0 = open loop: pace submissions at this
  /// aggregate offered rate, shed rejections, wait for stragglers at the
  /// end; latency distributions then live in the server's telemetry
  /// histograms (`serve.*.latency`).
  double offered_rps = 0.0;
  /// After this many admitted submissions, run `on_swap` exactly once
  /// from a producer thread (0 = never).
  std::size_t swap_after = 0;
  std::function<void()> on_swap;
  /// Service class attached to every submission.
  Priority priority = Priority::kNormal;
  /// Per-sample service classes (overrides `priority` when non-empty;
  /// size must equal the sample count) — how a mixed-priority load is
  /// scripted deterministically.
  std::vector<Priority> priorities;
  /// Queueing budget attached to every submission (0 = none).  A
  /// request that exceeds it is dropped at dequeue time and counted in
  /// `HarnessReport::deadline_missed`, never retried — the budget was
  /// the point.
  std::uint64_t deadline_us = 0;
};

struct HarnessReport {
  /// Per-sample logits, in input-batch order.  Open loop: an empty
  /// tensor where the submission was shed.
  std::vector<Tensor> outputs;
  /// The model version that served each sample (0 where shed) — the
  /// observable hot-swap tests assert on.
  std::vector<std::uint64_t> versions;
  std::size_t requests = 0;   ///< samples that got a served reply
  /// Submission *attempts*: every call at the admission door, so a
  /// closed-loop retry burst counts once per retry.  Always equals
  /// `admitted + rejected` — the denominator a shed rate is honest
  /// against.
  std::size_t offered = 0;
  std::size_t admitted = 0;  ///< attempts accepted by admission control
  std::size_t rejected = 0;  ///< attempts rejected at the door (queue full)
  /// Admitted requests evicted by a higher-priority arrival (closed
  /// loop retries them; each retry is a fresh offer).
  std::size_t shed = 0;
  /// Admitted requests dropped expired at dequeue time (never retried).
  std::size_t deadline_missed = 0;
  double wall_seconds = 0.0;  ///< first submit → last reply
  /// Exact per-request round-trip latencies (closed loop and TCP mode;
  /// empty in the in-process open loop — read the telemetry histograms).
  std::vector<std::uint64_t> latency_ns;

  /// Quantile over `latency_ns` (nearest-rank); 0 when empty.
  std::uint64_t latency_quantile_ns(double q) const;
};

class ServeHarness {
 public:
  /// Drive `server`'s model `model` in process.  Both must outlive the
  /// harness; the server is borrowed, not owned, so one server can sit
  /// behind many harnesses (and keep its models across runs).
  ServeHarness(InferenceServer& server, std::string model);

  /// Drive model `model` behind a TCP front end at `host:port` (one
  /// `TcpClient` connection per producer).  Closed loop only.
  ServeHarness(std::string host, std::uint16_t port, std::string model);

  /// Submit every sample of an NCHW batch (sample i goes to producer
  /// i % producers, each producer submits its share in order) and block
  /// until all replies arrived.  Closed loop retries queue-full
  /// rejections with a short backoff; open loop sheds them.
  HarnessReport run(const Tensor& samples, const HarnessOptions& options = {});

 private:
  InferenceServer* server_ = nullptr;  ///< in-process mode
  std::string host_;                   ///< TCP mode
  std::uint16_t port_ = 0;
  std::string model_;
};

}  // namespace ccq::serve
