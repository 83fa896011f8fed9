#include "ccq/common/telemetry.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <mutex>

#include "ccq/common/error.hpp"

namespace ccq::telemetry {

namespace detail {

std::atomic<bool> g_metrics_enabled{[] {
  const char* env = std::getenv("CCQ_METRICS");
  return env != nullptr && *env != '\0' && std::string(env) != "0";
}()};

}  // namespace detail

void set_metrics_enabled(bool on) {
  detail::g_metrics_enabled.store(on, std::memory_order_relaxed);
}

// ---- names -----------------------------------------------------------------

const char* counter_name(Counter id) {
  switch (id) {
    case Counter::kProbes: return "ccq.probes";
    case Counter::kPicks: return "ccq.picks";
    case Counter::kRecoveryEpochs: return "ccq.recovery_epochs";
    case Counter::kWorkspaceHits: return "workspace.acquire_hits";
    case Counter::kWorkspaceMisses: return "workspace.acquire_misses";
    case Counter::kTraceEvents: return "trace.events";
    case Counter::kServeRequests: return "serve.requests";
    case Counter::kServeRejected: return "serve.rejected";
    case Counter::kServeBatches: return "serve.batches";
    case Counter::kServeShed: return "serve.shed";
    case Counter::kServeDeadlineMiss: return "serve.deadline_miss";
    case Counter::kServeBatchesInline: return "serve.batches_inline";
    case Counter::kCount: break;
  }
  return "?";
}

const char* gauge_name(Gauge id) {
  switch (id) {
    case Gauge::kLambda: return "ccq.lambda";
    case Gauge::kValAccuracy: return "ccq.val_accuracy";
    case Gauge::kCompression: return "ccq.compression";
    case Gauge::kLr: return "ccq.lr";
    case Gauge::kServeQueueDepth: return "serve.queue_depth";
    case Gauge::kCount: break;
  }
  return "?";
}

const char* timer_name(Timer id) {
  switch (id) {
    case Timer::kGemm: return "gemm";
    case Timer::kIgemm: return "hw.igemm";
    case Timer::kIgemmScalar: return "hw.igemm.scalar";
    case Timer::kIgemmVec16: return "hw.igemm.vec16";
    case Timer::kIgemmVecPacked: return "hw.igemm.vec_packed";
    case Timer::kHwRequant: return "hw.requant";
    case Timer::kConvForward: return "conv.forward";
    case Timer::kConvBackward: return "conv.backward";
    case Timer::kProbeEval: return "probe.eval";
    case Timer::kRecoveryEpoch: return "recovery.epoch";
    case Timer::kWorkspaceAcquire: return "workspace.acquire";
    case Timer::kServeLatency: return "serve.latency";
    case Timer::kServeBatchSize: return "serve.batch_size";
    case Timer::kCount: break;
  }
  return "?";
}

// ---- storage ---------------------------------------------------------------
// Everything is statically sized and atomic: recording never allocates,
// never locks, and is race-free under ThreadPool workers (TSan tier).

namespace {

struct TimerCell {
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> total_ns{0};
  std::atomic<std::uint64_t> min_ns{~std::uint64_t{0}};
  std::atomic<std::uint64_t> max_ns{0};
  std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets{};
};

std::array<std::atomic<std::uint64_t>,
           static_cast<std::size_t>(Counter::kCount)>
    g_counters{};
// Gauges hold doubles bit-cast through uint64 so plain atomics suffice.
std::array<std::atomic<std::uint64_t>, static_cast<std::size_t>(Gauge::kCount)>
    g_gauges{};
std::array<TimerCell, static_cast<std::size_t>(Timer::kCount)> g_timers{};

int bucket_of(std::uint64_t ns) {
  const int b = static_cast<int>(std::bit_width(ns));
  return b < kHistogramBuckets ? b : kHistogramBuckets - 1;
}

void atomic_min(std::atomic<std::uint64_t>& slot, std::uint64_t v) {
  std::uint64_t cur = slot.load(std::memory_order_relaxed);
  while (v < cur &&
         !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<std::uint64_t>& slot, std::uint64_t v) {
  std::uint64_t cur = slot.load(std::memory_order_relaxed);
  while (v > cur &&
         !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

TimerStats stats_of(const TimerCell& cell) {
  TimerStats stats;
  stats.count = cell.count.load(std::memory_order_relaxed);
  stats.total_ns = cell.total_ns.load(std::memory_order_relaxed);
  const std::uint64_t min = cell.min_ns.load(std::memory_order_relaxed);
  stats.min_ns = stats.count == 0 ? 0 : min;
  stats.max_ns = cell.max_ns.load(std::memory_order_relaxed);
  for (int b = 0; b < kHistogramBuckets; ++b) {
    stats.buckets[static_cast<std::size_t>(b)] =
        cell.buckets[static_cast<std::size_t>(b)].load(
            std::memory_order_relaxed);
  }
  return stats;
}

void reset_cell(TimerCell& cell) {
  cell.count.store(0, std::memory_order_relaxed);
  cell.total_ns.store(0, std::memory_order_relaxed);
  cell.min_ns.store(~std::uint64_t{0}, std::memory_order_relaxed);
  cell.max_ns.store(0, std::memory_order_relaxed);
  for (auto& b : cell.buckets) b.store(0, std::memory_order_relaxed);
}

}  // namespace

void add(Counter id, std::uint64_t delta) {
  if (!metrics_enabled()) return;
  g_counters[static_cast<std::size_t>(id)].fetch_add(
      delta, std::memory_order_relaxed);
}

void set_gauge(Gauge id, double value) {
  if (!metrics_enabled()) return;
  g_gauges[static_cast<std::size_t>(id)].store(std::bit_cast<std::uint64_t>(value),
                                               std::memory_order_relaxed);
}

void record_duration(Timer id, std::uint64_t ns) {
  if (!metrics_enabled()) return;
  TimerCell& cell = g_timers[static_cast<std::size_t>(id)];
  cell.count.fetch_add(1, std::memory_order_relaxed);
  cell.total_ns.fetch_add(ns, std::memory_order_relaxed);
  atomic_min(cell.min_ns, ns);
  atomic_max(cell.max_ns, ns);
  cell.buckets[static_cast<std::size_t>(bucket_of(ns))].fetch_add(
      1, std::memory_order_relaxed);
}

std::uint64_t ScopedTimer::now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t counter_value(Counter id) {
  return g_counters[static_cast<std::size_t>(id)].load(
      std::memory_order_relaxed);
}

double gauge_value(Gauge id) {
  return std::bit_cast<double>(g_gauges[static_cast<std::size_t>(id)].load(
      std::memory_order_relaxed));
}

TimerStats timer_stats(Timer id) {
  return stats_of(g_timers[static_cast<std::size_t>(id)]);
}

// ---- named metrics ---------------------------------------------------------
// Fixed-capacity slot arrays (stable addresses, no reallocation) so the
// record path stays lock-free; only registration takes the mutex.

namespace {

struct NamedRegistry {
  std::mutex mutex;
  // One name table per kind; slot i of the matching storage array
  // belongs to names[i].  size() doubles as the next free id.
  std::array<std::vector<std::string>, 3> names;
};

NamedRegistry& named_registry() {
  static NamedRegistry registry;
  return registry;
}

std::array<std::atomic<std::uint64_t>, kMaxNamedMetrics> g_named_counters{};
std::array<std::atomic<std::uint64_t>, kMaxNamedMetrics> g_named_gauges{};
std::array<TimerCell, kMaxNamedMetrics> g_named_timers{};

}  // namespace

int named_metric(NamedKind kind, const std::string& name) {
  NamedRegistry& registry = named_registry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  auto& names = registry.names[static_cast<std::size_t>(kind)];
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return static_cast<int>(i);
  }
  // Capacity exhaustion degrades to "metrics disabled for this series"
  // (-1 no-ops through every record path) rather than throwing: the
  // serving stack registers per-model series at load time, and a
  // telemetry capacity limit must not turn into a model-load failure.
  if (names.size() >= kMaxNamedMetrics) return -1;
  names.push_back(name);
  return static_cast<int>(names.size() - 1);
}

int find_named_metric(NamedKind kind, const std::string& name) {
  NamedRegistry& registry = named_registry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  const auto& names = registry.names[static_cast<std::size_t>(kind)];
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return static_cast<int>(i);
  }
  return -1;
}

void add_named(int counter_id, std::uint64_t delta) {
  if (!metrics_enabled() || counter_id < 0) return;
  g_named_counters[static_cast<std::size_t>(counter_id)].fetch_add(
      delta, std::memory_order_relaxed);
}

void set_named_gauge(int gauge_id, double value) {
  if (!metrics_enabled() || gauge_id < 0) return;
  g_named_gauges[static_cast<std::size_t>(gauge_id)].store(
      std::bit_cast<std::uint64_t>(value), std::memory_order_relaxed);
}

void record_named_duration(int timer_id, std::uint64_t ns) {
  if (!metrics_enabled() || timer_id < 0) return;
  TimerCell& cell = g_named_timers[static_cast<std::size_t>(timer_id)];
  cell.count.fetch_add(1, std::memory_order_relaxed);
  cell.total_ns.fetch_add(ns, std::memory_order_relaxed);
  atomic_min(cell.min_ns, ns);
  atomic_max(cell.max_ns, ns);
  cell.buckets[static_cast<std::size_t>(bucket_of(ns))].fetch_add(
      1, std::memory_order_relaxed);
}

std::uint64_t named_counter_value(int counter_id) {
  if (counter_id < 0) return 0;
  return g_named_counters[static_cast<std::size_t>(counter_id)].load(
      std::memory_order_relaxed);
}

double named_gauge_value(int gauge_id) {
  if (gauge_id < 0) return 0.0;
  return std::bit_cast<double>(
      g_named_gauges[static_cast<std::size_t>(gauge_id)].load(
          std::memory_order_relaxed));
}

TimerStats named_timer_stats(int timer_id) {
  if (timer_id < 0) return TimerStats{};
  return stats_of(g_named_timers[static_cast<std::size_t>(timer_id)]);
}

std::uint64_t approx_quantile(const TimerStats& stats, double q) {
  if (stats.count == 0) return 0;
  q = std::min(1.0, std::max(0.0, q));
  const auto target = static_cast<std::uint64_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(stats.count))));
  std::uint64_t seen = 0;
  for (int b = 0; b < kHistogramBuckets; ++b) {
    seen += stats.buckets[static_cast<std::size_t>(b)];
    if (seen >= target) {
      return b >= 63 ? ~std::uint64_t{0} : (std::uint64_t{1} << b);
    }
  }
  return stats.max_ns;
}

void reset_metrics() {
  for (auto& c : g_counters) c.store(0, std::memory_order_relaxed);
  for (auto& g : g_gauges) g.store(0, std::memory_order_relaxed);
  for (auto& cell : g_timers) reset_cell(cell);
  // Named slots are zeroed but stay registered: ids handed out earlier
  // remain valid across test-style resets.
  for (auto& c : g_named_counters) c.store(0, std::memory_order_relaxed);
  for (auto& g : g_named_gauges) g.store(0, std::memory_order_relaxed);
  for (auto& cell : g_named_timers) reset_cell(cell);
}

namespace {

Json timer_json(const TimerStats& stats) {
  Json t = Json::object();
  t.set("count", static_cast<double>(stats.count));
  t.set("total_ns", static_cast<double>(stats.total_ns));
  t.set("min_ns", static_cast<double>(stats.min_ns));
  t.set("max_ns", static_cast<double>(stats.max_ns));
  t.set("mean_ns", stats.count == 0
                       ? 0.0
                       : static_cast<double>(stats.total_ns) /
                             static_cast<double>(stats.count));
  // Histogram as [upper_bound_ns, count] pairs for non-empty buckets.
  Json hist = Json::array();
  for (int b = 0; b < kHistogramBuckets; ++b) {
    const std::uint64_t n = stats.buckets[static_cast<std::size_t>(b)];
    if (n == 0) continue;
    Json pair = Json::array();
    pair.push_back(static_cast<double>(b >= 63 ? ~std::uint64_t{0}
                                               : (std::uint64_t{1} << b)));
    pair.push_back(static_cast<double>(n));
    hist.push_back(std::move(pair));
  }
  t.set("histogram_ns", std::move(hist));
  return t;
}

// Snapshot one kind's registered names (ids are the indices).
std::vector<std::string> named_names(NamedKind kind) {
  NamedRegistry& registry = named_registry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  return registry.names[static_cast<std::size_t>(kind)];
}

}  // namespace

Json metrics_to_json() {
  Json root = Json::object();
  Json counters = Json::object();
  for (int i = 0; i < static_cast<int>(Counter::kCount); ++i) {
    const auto id = static_cast<Counter>(i);
    counters.set(counter_name(id),
                 static_cast<double>(counter_value(id)));
  }
  const auto counter_names = named_names(NamedKind::kCounter);
  for (std::size_t i = 0; i < counter_names.size(); ++i) {
    counters.set(counter_names[i], static_cast<double>(named_counter_value(
                                       static_cast<int>(i))));
  }
  root.set("counters", std::move(counters));

  Json gauges = Json::object();
  for (int i = 0; i < static_cast<int>(Gauge::kCount); ++i) {
    const auto id = static_cast<Gauge>(i);
    gauges.set(gauge_name(id), gauge_value(id));
  }
  const auto gauge_names = named_names(NamedKind::kGauge);
  for (std::size_t i = 0; i < gauge_names.size(); ++i) {
    gauges.set(gauge_names[i], named_gauge_value(static_cast<int>(i)));
  }
  root.set("gauges", std::move(gauges));

  Json timers = Json::object();
  for (int i = 0; i < static_cast<int>(Timer::kCount); ++i) {
    const auto id = static_cast<Timer>(i);
    timers.set(timer_name(id), timer_json(timer_stats(id)));
  }
  const auto timer_names = named_names(NamedKind::kTimer);
  for (std::size_t i = 0; i < timer_names.size(); ++i) {
    timers.set(timer_names[i],
               timer_json(named_timer_stats(static_cast<int>(i))));
  }
  root.set("timers", std::move(timers));
  return root;
}

bool save_metrics(const std::string& path) {
  return metrics_to_json().save(path);
}

// ---- trace sink ------------------------------------------------------------

namespace {

struct TraceState {
  std::mutex mutex;
  std::ofstream out;
  std::atomic<bool> enabled{false};
};

TraceState& trace_state() {
  static TraceState state;
  static std::once_flag once;
  std::call_once(once, [] {
    const char* env = std::getenv("CCQ_TRACE");
    if (env != nullptr && *env != '\0') {
      std::lock_guard<std::mutex> lock(state.mutex);
      state.out.open(env, std::ios::app);
      CCQ_CHECK(static_cast<bool>(state.out),
                std::string("cannot open CCQ_TRACE file ") + env);
      state.enabled.store(true, std::memory_order_relaxed);
    }
  });
  return state;
}

}  // namespace

void set_trace_path(const std::string& path) {
  TraceState& state = trace_state();
  std::lock_guard<std::mutex> lock(state.mutex);
  if (state.out.is_open()) state.out.close();
  state.enabled.store(false, std::memory_order_relaxed);
  if (path.empty()) return;
  state.out.open(path, std::ios::app);
  CCQ_CHECK(static_cast<bool>(state.out), "cannot open trace file " + path);
  state.enabled.store(true, std::memory_order_relaxed);
}

bool trace_enabled() {
  return trace_state().enabled.load(std::memory_order_relaxed);
}

void trace_event(const Json& event) {
  TraceState& state = trace_state();
  if (!state.enabled.load(std::memory_order_relaxed)) return;
  const std::string line = event.dump(-1);
  {
    std::lock_guard<std::mutex> lock(state.mutex);
    if (!state.out.is_open()) return;
    state.out << line << '\n';
  }
  add(Counter::kTraceEvents);
}

void flush_trace() {
  TraceState& state = trace_state();
  std::lock_guard<std::mutex> lock(state.mutex);
  if (state.out.is_open()) state.out.flush();
}

}  // namespace ccq::telemetry
