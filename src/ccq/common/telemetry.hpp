// Telemetry: process-wide metrics registry + JSONL event-trace sink.
//
// The CCQ controller is a long-running accuracy-driven loop; search-based
// mixed-precision frameworks (HAQ, ReLeQ) live or die by per-step signal
// traces.  This module exposes the equivalent as first-class data:
//
//   * Metrics — enum-indexed counters, gauges and log₂-bucketed duration
//     histograms with fixed pre-sized storage (no hashing, no heap
//     allocation on the record path, relaxed atomics so recording from
//     `ThreadPool` workers is race-free).  Enabled via `CCQ_METRICS=1`
//     or `set_metrics_enabled(true)`; when disabled every record call is
//     a single relaxed load + branch, so instrumented hot paths (GEMM,
//     conv, probe eval, workspace acquire) stay within noise.
//   * Scoped timers — RAII wall-clock spans feeding the histograms.
//   * Trace — a JSONL sink (`ccq::Json`, one compact object per line)
//     for structured controller events (probe / pick / recovery epoch;
//     see core/observers.hpp for the schema).  Enabled via
//     `CCQ_TRACE=<path>` or `set_trace_path`.
//
// docs/OBSERVABILITY.md documents metric names, the event schema and
// measured overheads.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

#include "ccq/common/json.hpp"

namespace ccq::telemetry {

// ---- enablement ------------------------------------------------------------

namespace detail {
extern std::atomic<bool> g_metrics_enabled;  // seeded from $CCQ_METRICS
}  // namespace detail

/// True when metric recording is on.  This is the hot-path gate: a single
/// relaxed atomic load.
inline bool metrics_enabled() {
  return detail::g_metrics_enabled.load(std::memory_order_relaxed);
}
void set_metrics_enabled(bool on);

// ---- metric ids ------------------------------------------------------------

enum class Counter : int {
  kProbes,            ///< competition probe evaluations
  kPicks,             ///< quantization steps committed
  kRecoveryEpochs,    ///< collaboration fine-tuning epochs
  kWorkspaceHits,     ///< pool acquisitions served from a bucket
  kWorkspaceMisses,   ///< pool acquisitions that heap-allocated
  kTraceEvents,       ///< JSONL lines written to the trace sink
  kServeRequests,     ///< inference requests admitted to the serve queue
  kServeRejected,     ///< inference requests rejected (queue full / stopped)
  kServeBatches,      ///< dynamic batches flushed by serve workers
  kServeShed,         ///< requests shed by admission control (rejected at the
                      ///< door on a full queue, or evicted for priority)
  kServeDeadlineMiss, ///< requests dropped expired at dequeue time
  kServeBatchesInline,  ///< of kServeBatches, those run by an `infer` caller
  kCount
};

enum class Gauge : int {
  kLambda,           ///< current Eq. 7 mixing coefficient
  kValAccuracy,      ///< last validation accuracy seen by the controller
  kCompression,      ///< current model compression ratio
  kLr,               ///< last learning rate applied
  kServeQueueDepth,  ///< serve request queue depth after the last op
  kCount
};

enum class Timer : int {
  kGemm,              ///< blocked GEMM core (gemm / gemm_tn)
  kIgemm,             ///< blocked integer GEMM (igemm_run, all kernels)
  kIgemmScalar,       ///< igemm per-kernel axis: scalar rank-1 kernel
  kIgemmVec16,        ///< igemm per-kernel axis: vec16 SIMD kernel
  kIgemmVecPacked,    ///< igemm per-kernel axis: vec-packed 8-bit kernel
  kHwRequant,         ///< engine code-domain requant ops (input snap, pool means)
  kConvForward,       ///< Conv2d::forward
  kConvBackward,      ///< Conv2d::backward
  kProbeEval,         ///< evaluate_batch (the competition probe primitive)
  kRecoveryEpoch,     ///< one collaboration epoch (train + validate)
  kWorkspaceAcquire,  ///< Workspace::acquire
  kServeLatency,      ///< serve enqueue→reply wall time per request
  kServeBatchSize,    ///< serve batch sizes (unitless samples, not ns)
  kCount
};

const char* counter_name(Counter id);
const char* gauge_name(Gauge id);
const char* timer_name(Timer id);

// ---- recording (no-ops when metrics are disabled) --------------------------

void add(Counter id, std::uint64_t delta = 1);
void set_gauge(Gauge id, double value);
/// Record one duration sample into `id`'s histogram.
void record_duration(Timer id, std::uint64_t ns);

/// RAII wall-clock span over `id`.  Reads the clock only when metrics are
/// enabled at construction time.
class ScopedTimer {
 public:
  explicit ScopedTimer(Timer id)
      : id_(id), armed_(metrics_enabled()), start_ns_(armed_ ? now_ns() : 0) {}
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
  ~ScopedTimer() {
    if (armed_) record_duration(id_, now_ns() - start_ns_);
  }

  /// Monotonic wall clock in nanoseconds.
  static std::uint64_t now_ns();

 private:
  Timer id_;
  bool armed_;
  std::uint64_t start_ns_;
};

// ---- readout ---------------------------------------------------------------

/// Log₂ duration buckets: bucket b counts samples with 2^(b−1) < ns ≤ 2^b
/// (bucket 0 counts 0–1 ns, the last bucket is open-ended).
inline constexpr int kHistogramBuckets = 48;

struct TimerStats {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t min_ns = 0;  ///< 0 when count == 0
  std::uint64_t max_ns = 0;
  std::array<std::uint64_t, kHistogramBuckets> buckets{};
};

std::uint64_t counter_value(Counter id);
double gauge_value(Gauge id);
TimerStats timer_stats(Timer id);

// ---- named (dynamic) metrics -----------------------------------------------
// The enum registry covers process-wide series whose names are known at
// compile time.  Subsystems that host a runtime-determined *set* of
// instances — the serving stack's per-model `serve.<model>.*` series —
// register named metrics instead: registration (cold path, model load)
// interns the name under a mutex and hands back a stable id; recording
// through the id is the same lock-free fixed-storage scheme as the enum
// metrics, so per-model accounting adds nothing to the hot path beyond
// one extra atomic op per event.  Capacity is fixed
// (`kMaxNamedMetrics` per kind); once exhausted, registration returns
// -1 — the id every record/query path treats as "metrics disabled" —
// so a telemetry capacity limit never turns into a load failure in the
// subsystem registering the series.  Re-registering a name returns the
// existing id, so a hot-swapped model keeps accumulating into the same
// series across versions.

inline constexpr std::size_t kMaxNamedMetrics = 256;

enum class NamedKind : int { kCounter, kGauge, kTimer };

/// Register (or look up) a named metric; returns its stable id, or -1
/// when capacity is exhausted (recording through -1 is a no-op).
int named_metric(NamedKind kind, const std::string& name);

void add_named(int counter_id, std::uint64_t delta = 1);
void set_named_gauge(int gauge_id, double value);
void record_named_duration(int timer_id, std::uint64_t ns);

std::uint64_t named_counter_value(int counter_id);
double named_gauge_value(int gauge_id);
TimerStats named_timer_stats(int timer_id);

/// Look up a registered name; returns -1 when absent (no registration).
int find_named_metric(NamedKind kind, const std::string& name);

/// Approximate quantile from a log₂-bucket histogram: the upper bound of
/// the bucket holding the ceil(q·count)-th sample (0 when empty).
/// Resolution is a factor of two — enough for p50/p99 latency reporting.
std::uint64_t approx_quantile(const TimerStats& stats, double q);

/// Zero every counter/gauge/histogram (tests and benches).
void reset_metrics();

/// Snapshot the whole registry as a JSON object (counters, gauges, and
/// per-timer count/total/min/max/mean plus non-empty histogram buckets).
Json metrics_to_json();

/// Write `metrics_to_json()` to `path`; returns false on IO error.
bool save_metrics(const std::string& path);

// ---- JSONL event trace -----------------------------------------------------

/// (Re)direct the trace sink: opens `path` for appending events, closing
/// any previous sink; an empty path disables tracing.  Throws on open
/// failure.  First use is seeded from `$CCQ_TRACE`.
void set_trace_path(const std::string& path);

/// True when a trace sink is open.  Relaxed load — safe on hot paths.
bool trace_enabled();

/// Append one event as a compact single-line JSON object.  No-op when
/// tracing is disabled.  Thread-safe: lines never interleave.
void trace_event(const Json& event);

/// Flush the sink so far (tests read the file mid-process).
void flush_trace();

}  // namespace ccq::telemetry
