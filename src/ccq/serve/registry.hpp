// Model registry: many packed artifacts, versioned, hot-swappable.
//
// The single-model `InferenceServer` of PR 4 served exactly one compiled
// network to in-process callers.  Fleet-scale serving (ROADMAP item 1)
// needs the opposite shape: one server hosting *many* models, each
// replaceable under traffic.  This module is the routing layer:
//
//   * `ModelRegistry` maps model names to an ordered list of loaded
//     versions.  `publish()` appends a new version and atomically makes
//     it the name's *current* version — an epoch-style cutover: requests
//     resolved before the publish keep the old version, requests
//     resolved after get the new one, and no resolution ever observes a
//     half-installed model.
//   * `ModelHandle` is the opaque, refcounted pin callers route requests
//     through.  A handle keeps its version alive (shared ownership of
//     the compiled network) no matter how many newer versions have been
//     published, so in-flight and even future submissions through an old
//     handle are served by the exact artifact that was resolved —
//     the hot-swap bit-identity contract.  A version's memory is
//     released when the last handle drops *and* the registry no longer
//     lists it.
//   * Versions stay resolvable by explicit number (`resolve(name, v)`)
//     until unloaded, so a canary can pin v2 while the fleet default
//     stays v1.
//
// The registry owns names, versions and the compiled networks; the
// *queue state* embedded in each `detail::LoadedModel` (request deque,
// in-flight count, admission flags) belongs to the `InferenceServer`
// that loaded the model and is guarded by that server's mutex — the
// registry never touches it.
#pragma once

#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "ccq/common/error.hpp"
#include "ccq/hw/integer_engine.hpp"
#include "ccq/serve/sla.hpp"

namespace ccq::serve {

class InferenceServer;

/// Per-model serving knobs.  Split out of the old monolithic
/// `ServeConfig` (which now holds only server-wide knobs): batching
/// shape and admission bounds are properties of a model's traffic, not
/// of the worker pool, and every loaded model carries its own copy.
struct ModelConfig {
  std::size_t max_batch = 8;  ///< most requests one batch takes
  /// Batch-fill hold.  0 (the default) = no hold: a free worker takes
  /// whatever the model has queued, up to `max_batch`, so batches form
  /// only from requests that arrive while every worker is busy.  A
  /// positive value holds a partial batch until `max_batch` requests
  /// wait or the oldest has waited this many microseconds.
  std::uint64_t max_delay_us = 0;
  std::size_t queue_capacity = 64;  ///< per-model admission bound
  /// Fair-share weight against the other models on the same server: the
  /// worker pool serves flushable models in proportion to their weights
  /// (virtual-time accounting, serve/sla.hpp).  Must be positive and
  /// finite; 1.0 = an equal share.
  double weight = 1.0;
  /// p99 latency target in microseconds for the `serve.<name>.p99_vs_slo`
  /// gauge (ratio of observed p99 to this target; > 1 = violating).
  /// 0 disables the gauge.
  std::uint64_t slo_us = 0;
};

/// Resolution failed: no model (or no such version) under that name.
class ModelNotFoundError : public Error {
 public:
  explicit ModelNotFoundError(const std::string& message) : Error(message) {}
};

/// Admission rejected: the version this handle pins has been unloaded.
/// Resolve the name again to reach the current version.
class ModelRetiredError : public Error {
 public:
  ModelRetiredError(const std::string& name, std::uint64_t version)
      : Error("model " + name + " v" + std::to_string(version) +
              " has been unloaded; resolve \"" + name +
              "\" again for the current version") {}
};

namespace detail {

/// One queued inference request (inputs/outputs are caller-owned).
struct Request {
  const Tensor* input = nullptr;
  Tensor* output = nullptr;
  std::promise<void> promise;
  /// Admission instant on the server clock (real steady clock, or the
  /// injected `ServeConfig::now_fn`): anchors the batching deadline,
  /// the queue-stage and latency samples and the request deadline.
  std::uint64_t enqueue_ns = 0;
  Priority priority = Priority::kNormal;
  /// Absolute expiry instant (server clock); 0 = no deadline.  Expiry
  /// is checked at dequeue time, never at admission.
  std::uint64_t deadline_ns = 0;
  std::uint64_t deadline_us = 0;  ///< original budget (for diagnostics)
};

/// One loaded model version: the compiled network plus its serving
/// state.  Everything above the `queue state` line is immutable after
/// construction; the queue state is guarded by the loading server's
/// mutex.
struct LoadedModel {
  LoadedModel(std::string name_in, std::uint64_t version_in,
              hw::IntegerNetwork net_in, ModelConfig config_in);

  const std::string name;
  const std::uint64_t version;
  const ModelConfig config;
  const hw::IntegerNetwork net;

  /// Per-model telemetry ids (`serve.<name>.*`), registered at load
  /// time; versions of the same name share one series.
  struct Metrics {
    int requests = -1;
    int rejected = -1;
    int batches = -1;
    int batches_inline = -1;  ///< counter: batches run by an `infer` caller
    int queue_depth = -1;
    int latency = -1;
    int batch_size = -1;
    int deadline_miss = -1;  ///< counter: requests dropped expired at dequeue
    /// Counters: requests shed by admission control (rejected at the
    /// door or evicted for higher-priority traffic), per service class.
    std::array<int, kPriorityCount> shed = {-1, -1, -1};
    /// Timers: the latency series split by service class.
    std::array<int, kPriorityCount> latency_by_priority = {-1, -1, -1};
    int p99_vs_slo = -1;     ///< gauge: observed p99 / slo_us (when set)
    /// Timer: admission → dequeue into a batch, per request that joins
    /// one (a held request's batch-fill wait counts as queue time).
    int stage_queue = -1;
  } metrics;

  // ---- queue state: guarded by the owning InferenceServer's mutex ----
  InferenceServer* owner = nullptr;  ///< server this version was loaded into
  SlaQueue<Request> queue;
  Shape pinned_shape;        ///< sample shape, pinned by the first submit
  std::size_t in_flight = 0;
  bool retired = false;      ///< unloaded: admissions closed, queue drains
  /// Virtual time accrued by the fair scheduler (served samples /
  /// config.weight) — the worker pool flushes the least-vtime model.
  double vtime = 0.0;
};

}  // namespace detail

/// Opaque refcounted pin on one model version.  Copyable and cheap; all
/// accessors require a valid (non-default-constructed) handle.
class ModelHandle {
 public:
  ModelHandle() = default;

  bool valid() const { return model_ != nullptr; }
  explicit operator bool() const { return valid(); }

  const std::string& model_name() const { return model().name; }
  std::uint64_t version() const { return model().version; }
  const ModelConfig& config() const { return model().config; }
  const hw::IntegerNetwork& network() const { return model().net; }

 private:
  friend class ModelRegistry;
  friend class InferenceServer;

  explicit ModelHandle(std::shared_ptr<detail::LoadedModel> model)
      : model_(std::move(model)) {}

  detail::LoadedModel& model() const {
    CCQ_CHECK(model_ != nullptr, "using an empty ModelHandle");
    return *model_;
  }

  std::shared_ptr<detail::LoadedModel> model_;
};

/// Thread-safe name → versions table.  Standalone-usable, but normally
/// owned by an `InferenceServer`, whose `load()`/`unload()` keep the
/// worker pool's scan list in sync with publishes and retirements.
class ModelRegistry {
 public:
  /// Install `net` as the next version of `name` (versions count up from
  /// 1 per name) and make it the name's current version.  The cutover is
  /// atomic with respect to `resolve`.
  ModelHandle publish(std::string name, hw::IntegerNetwork net,
                      ModelConfig config);

  /// Pin the current version of `name`.  Throws ModelNotFoundError
  /// (listing the known names) when absent.
  ModelHandle resolve(const std::string& name) const;

  /// Pin a specific version (0 means current).  Throws
  /// ModelNotFoundError naming the available versions when absent.
  ModelHandle resolve(const std::string& name, std::uint64_t version) const;

  bool has(const std::string& name) const;
  std::vector<std::string> names() const;

  struct VersionInfo {
    std::uint64_t version = 0;
    bool current = false;
  };
  /// Loaded versions of `name`, oldest first (empty when unknown).
  std::vector<VersionInfo> versions(const std::string& name) const;

  /// Delist one version / every version of `name`, returning the removed
  /// models (empty when nothing matched).  Handles already pinning them
  /// stay alive; new resolutions no longer find them.
  std::vector<std::shared_ptr<detail::LoadedModel>> take(
      const std::string& name, std::uint64_t version);
  std::vector<std::shared_ptr<detail::LoadedModel>> take_all(
      const std::string& name);

 private:
  struct Entry {
    std::vector<std::shared_ptr<detail::LoadedModel>> versions;  // oldest first
    std::uint64_t next_version = 1;
  };

  mutable std::mutex mutex_;
  std::map<std::string, Entry> entries_;
};

}  // namespace ccq::serve
