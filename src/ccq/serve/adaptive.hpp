// Load-driven operating-point selection for multi-point models.
//
// A multi-point CCQA artifact ships several serving rungs of one model: the same
// layer sequence compiled at the precision configurations the CCQ
// controller actually visited, rung 0 the most accurate and the last
// rung the cheapest (serve/artifact.hpp).  This module decides *which*
// rung a model serves from, batch by batch, as a function of load:
//
//   * degrade — when the model's queue depth reaches
//     `OperatingPointPolicy::degrade_depth` (or its recent p99 latency
//     exceeds `degrade_p99_us`), step one rung down: cheaper batches
//     drain the queue faster at a known, bounded accuracy cost (the
//     per-rung `val_acc` the artifact records);
//   * restore — when depth falls back to `restore_depth`, step one rung
//     up toward full quality.  The gap between the two thresholds is the
//     hysteresis band that keeps the operating point from oscillating on
//     noisy arrival streams, and `min_dwell_us` adds a time floor
//     between consecutive switches;
//   * decisions are taken at batch-flush time under the server mutex, so
//     a batch is always executed at exactly one rung — precision never
//     mixes within a batch, and every reply is bit-identical to
//     `IntegerNetwork::forward_reference` at the rung that served it.
//
// Single-rung models never switch (the controller is inert), so loading
// a single-point artifact through this stack changes nothing.  Callers can bypass
// the controller per request (`SubmitOptions::rung`) or pin the whole
// model with `fixed_rung`.
//
// Observability: `serve.<name>.rung` (gauge, current rung index) and
// `serve.<name>.rung_switches` (counter) — docs/OBSERVABILITY.md.
#pragma once

#include <cstddef>
#include <cstdint>

#include "ccq/common/telemetry.hpp"

namespace ccq::serve {

/// Per-model operating-point policy (embedded in `ModelConfig`).
/// Defaults keep a lightly loaded model at rung 0 and shed precision
/// only under sustained queueing.
struct OperatingPointPolicy {
  /// Step one rung down when the queue holds this many requests at a
  /// flush decision.
  std::size_t degrade_depth = 16;
  /// Step one rung up when the queue has drained to this depth or less.
  /// Must be < degrade_depth (the gap is the hysteresis band).
  std::size_t restore_depth = 2;
  /// Also degrade when the model's recent p99 latency (from the
  /// `serve.<name>.latency` histogram, measured between decisions)
  /// exceeds this many microseconds.  0 disables the latency trigger.
  std::uint64_t degrade_p99_us = 0;
  /// Also degrade on deadline pressure: when the fraction of admitted
  /// requests that expired at dequeue, measured between decisions,
  /// exceeds this rate.  Misses are a sharper degrade signal than raw
  /// depth — a deep queue of lax-deadline requests is healthy, a
  /// shallow queue that keeps expiring is not.  0 disables; must be
  /// within [0, 1].
  double degrade_miss_rate = 0.0;
  /// Minimum time between consecutive rung switches.  0 = none.
  std::uint64_t min_dwell_us = 0;
  /// Pin the model to one rung (index into the artifact's rungs),
  /// disabling load-driven switching.  −1 = adaptive.
  std::int32_t fixed_rung = -1;
};

/// Everything a flush-time rung decision looks at.  The server fills
/// the deadline-pressure fields from the model's lifetime counters (the
/// controller windows them itself); the two-argument `decide` overload
/// leaves them zero, which keeps the miss trigger inert.
struct LoadSignals {
  std::size_t queue_depth = 0;
  std::uint64_t now_ns = 0;           ///< decision timestamp (server clock)
  std::uint64_t admitted = 0;         ///< requests admitted, lifetime
  std::uint64_t deadline_misses = 0;  ///< requests expired at dequeue, lifetime
};

/// One model's rung selector.  Not thread-safe by itself: `decide()` and
/// `current()` run under the owning `InferenceServer`'s mutex, which is
/// exactly where batch composition is fixed — the invariant that makes
/// rung switches atomic between batches.
class OperatingPointController {
 public:
  /// Inert single-rung controller (always rung 0).
  OperatingPointController() = default;

  /// `rung_count` is the model's `IntegerNetwork::rung_count()`;
  /// `latency_timer` / `rung_gauge` / `switch_counter` the model's named
  /// metric ids (−1 ids degrade to no-ops, matching telemetry).
  OperatingPointController(OperatingPointPolicy policy, std::size_t rung_count,
                           int latency_timer, int rung_gauge,
                           int switch_counter);

  /// Pick the rung for the batch being flushed.  Steps at most one rung
  /// per call and records the gauge/counter on a switch.
  std::size_t decide(const LoadSignals& signals);

  /// Depth-and-latency-only convenience (the deadline-pressure trigger
  /// stays inert): `now_ns` is the decision timestamp (server clock).
  std::size_t decide(std::size_t queue_depth, std::uint64_t now_ns) {
    return decide(LoadSignals{queue_depth, now_ns, 0, 0});
  }

  /// Rung currently selected (what `decide` returned last).
  std::size_t current() const { return current_; }

  std::size_t rung_count() const { return rung_count_; }
  const OperatingPointPolicy& policy() const { return policy_; }

 private:
  bool latency_degrade();  ///< p99-since-last-decision above threshold?
  /// Miss-rate-since-last-decision above policy's degrade_miss_rate?
  bool deadline_degrade(const LoadSignals& signals);

  OperatingPointPolicy policy_;
  std::size_t rung_count_ = 1;
  int latency_timer_ = -1;
  int rung_gauge_ = -1;
  int switch_counter_ = -1;

  std::size_t current_ = 0;
  std::uint64_t last_switch_ns_ = 0;
  bool switched_once_ = false;
  /// Histogram state at the previous decision — p99 is computed over the
  /// *delta* so an old latency spike cannot pin the model degraded.
  telemetry::TimerStats last_stats_;
  /// Counter state at the previous decision — the miss-rate trigger
  /// windows the same way, so one historical expiry burst cannot pin
  /// the model degraded.
  std::uint64_t last_admitted_ = 0;
  std::uint64_t last_misses_ = 0;
};

}  // namespace ccq::serve
