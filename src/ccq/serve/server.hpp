// Multi-model inference server over the integer engine.
//
// The ROADMAP north star is serving, and mixed precision only pays off
// when the deployment stack exploits it (HAQ's argument).  This module
// is the execution half of the fleet front end: a shared worker pool
// draining the per-model request queues of a `ModelRegistry`
// (serve/registry.hpp is the routing half).  Architecture:
//
//   * a registry of named, versioned models — `load()` publishes a
//     compiled network (or a packed .ccqa artifact) as the new current
//     version of a name, `resolve()` pins a version behind an opaque
//     refcounted `ModelHandle`, and `submit(handle, sample, out)`
//     routes one CHW sample to exactly that version.  Hot-swap is just
//     `load()` again under the same name: requests admitted against the
//     old version finish on the old version's network (bit-identical to
//     its artifact), new resolutions get the new one, and nothing is
//     lost or double-served across the cutover (regression-tested);
//   * per-model bounded queues with priority admission — a full model
//     queue sheds its lowest-priority request (typed `RequestShedError`
//     through the evicted future) to admit strictly higher-priority
//     traffic, and rejects the incomer with `QueueFullError` otherwise,
//     so overload surfaces immediately and never at a high-priority
//     caller while lower-priority work is queued.  Requests carrying a
//     `deadline_us` budget that expires while queued are dropped at
//     dequeue time (typed `DeadlineExceededError`) instead of wasting a
//     batch slot — serve/sla.hpp holds the policy primitives;
//   * work-conserving dynamic batching per model — a free worker takes
//     whatever a model has queued, up to `max_batch`, so batches form
//     from the requests that arrive while every worker is busy and a
//     lone request on an idle server is served at once.  A positive
//     `max_delay_us` instead holds a partial batch until `max_batch`
//     requests wait or the oldest has waited that long (both are
//     per-model `ModelConfig` knobs).  Per-sample outputs of the integer
//     engine are independent of batch composition, so served results
//     are bit-identical to a direct `IntegerNetwork::forward` regardless
//     of coalescing;
//   * `workers` batch slots, each owning an `ExecContext` of
//     `intra_op_threads` (server-wide `ServeConfig` knobs).  Every batch
//     runs under a held slot, so at most `workers` batches run at once
//     and kernel threads stay at workers × intra_op_threads.  Two kinds
//     of thread hold slots: the `workers` pool threads, each with a warm
//     `Workspace`, and blocking `infer` callers, which take a free slot
//     and run the pool's one-batch step on their own thread with their
//     own `Workspace` — so a request on an idle server is answered with
//     no thread hand-off.  The step picks the next model to flush by
//     weighted fair scheduling: every model accrues virtual time at
//     `samples / ModelConfig::weight` as it is served and the flushable
//     model with the least virtual time goes next, so a hot model gets
//     its weight's share and no more while a quiet model's batch is
//     never starved behind it;
//   * graceful drain — `shutdown()` stops admissions, serves everything
//     already queued (for every model), joins the workers and waits out
//     any batch an `infer` caller is still running.
//
// Instrumented via ccq::telemetry (enable with CCQ_METRICS=1): the
// process-wide `serve.*` counters/gauges/histograms aggregate across
// models, and every model additionally records the same series under
// `serve.<name>.*` (named metrics; versions of one name share a
// series).  docs/SERVING.md covers the tuning knobs and the hot-swap
// protocol; docs/OBSERVABILITY.md the metric tables.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "ccq/common/exec.hpp"
#include "ccq/common/workspace.hpp"
#include "ccq/serve/registry.hpp"

namespace ccq::serve {

/// Server-wide knobs.  The batching/admission knobs that used to live
/// here are per-model now — see `ModelConfig` (serve/registry.hpp).
struct ServeConfig {
  std::size_t workers = 1;           ///< batch slots, and pool threads
  std::size_t intra_op_threads = 1;  ///< kernel threads per slot
  /// Injectable clock (nanoseconds, monotone non-decreasing; must be
  /// callable from any thread).  Null = the real steady clock.  Every
  /// time-dependent serving decision — batching deadlines, request
  /// deadlines, latency samples — reads this
  /// seam, which is how `tests/serve_sla_test.cpp` asserts scheduler
  /// properties exactly under a virtual clock.  With an injected clock
  /// workers never park on a timer: deadlines are (re)evaluated at
  /// queue events (submit / retire / shutdown), as of the instant of the
  /// latest one, so advancing the clock between events cannot race a
  /// worker's wakeup.  Under the default `max_delay_us` of 0 every
  /// submit is flushable at once; a test that sets a positive hold
  /// drives its flushes explicitly (e.g. by filling `max_batch`).
  std::function<std::uint64_t()> now_fn;
};

/// Admission rejected: the model's bounded queue already holds
/// `queue_capacity` requests, none of them lower-priority than the
/// incoming request (a lower-priority one would have been shed to make
/// room — see `RequestShedError` in serve/sla.hpp).  Callers shed load
/// or retry after a delay.
class QueueFullError : public Error {
 public:
  QueueFullError(const std::string& model, std::size_t capacity)
      : Error("serve queue for model " + model + " full (capacity " +
              std::to_string(capacity) + "): request rejected") {}
};

/// Admission rejected: the server is shutting down (or already stopped).
class ServerStoppedError : public Error {
 public:
  ServerStoppedError() : Error("inference server is stopped") {}
};

/// Per-request submission knobs (the no-options overloads pass
/// defaults).
struct SubmitOptions {
  /// Service class.  A full queue sheds its lowest-priority request
  /// (FIFO within the class) to admit a strictly higher-priority one;
  /// batches serve higher classes first.
  Priority priority = Priority::kNormal;
  /// Queueing budget in microseconds, relative to admission; 0 = none.
  /// A request not dequeued into a batch within the budget is dropped
  /// at dequeue time — its future fails with `DeadlineExceededError`
  /// and no batch slot is spent on it.  The deadline bounds queueing,
  /// not execution: once batched, the request is served.
  std::uint64_t deadline_us = 0;
};

class InferenceServer {
 public:
  /// Start the shared worker pool; models are loaded separately.
  explicit InferenceServer(ServeConfig config = {});
  ~InferenceServer();

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// Publish `net` as the next version of `name` and start serving it:
  /// an atomic cutover — `resolve(name)` switches to the new version the
  /// moment load returns, while requests already admitted (or still
  /// submitted through old handles) finish on their admitted version.
  /// Returns a handle pinning the new version.
  ModelHandle load(std::string name, hw::IntegerNetwork net,
                   ModelConfig config = {});

  /// Load a packed .ccqa artifact (serve/artifact.hpp) and publish it.
  ModelHandle load(std::string name, const std::string& artifact_path,
                   ModelConfig config = {});

  /// Close admissions for every version of `name` (one version with the
  /// second form) and delist it from the registry.  Requests already
  /// queued are still served; later submits through stale handles
  /// reject with ModelRetiredError.  Unknown names are a no-op.
  void unload(const std::string& name);
  void unload(const std::string& name, std::uint64_t version);

  /// Pin the current (or an explicit) version of `name`.  Throws
  /// ModelNotFoundError when absent.
  ModelHandle resolve(const std::string& name) const;
  ModelHandle resolve(const std::string& name, std::uint64_t version) const;

  const ModelRegistry& registry() const { return registry_; }

  /// Enqueue one CHW sample for the version pinned by `model`.  The
  /// reply lands in `out` (resized to the logit shape, reusing its
  /// capacity) and the future becomes ready once it is written.  Both
  /// `sample` and `out` must stay alive and untouched until then.
  /// Throws QueueFullError / ServerStoppedError / ModelRetiredError on
  /// admission failure, ccq::Error when the sample geometry fails the
  /// network's own shape check (`IntegerNetwork::check_input` — only a
  /// validated geometry ever pins a version's batch shape) or mismatches
  /// earlier requests to the same version; inference failures surface
  /// through the future.
  std::future<void> submit(const ModelHandle& model, const Tensor& sample,
                           Tensor& out);
  /// As above with per-request options (priority, deadline).
  std::future<void> submit(const ModelHandle& model, const Tensor& sample,
                           Tensor& out, const SubmitOptions& options);

  /// Convenience: resolve `name`'s current version and submit to it.
  std::future<void> submit(const std::string& name, const Tensor& sample,
                           Tensor& out);

  /// Blocking `submit`: returns once `out` holds the reply.  Admission is
  /// `submit`'s.  When a batch slot is free, the calling thread takes it
  /// and runs the worker pool's one-batch step (fair pick, deadline
  /// sweep, batch composition, forward) until its own request is
  /// answered or nothing is flushable — a batch-fill hold, or a deadline
  /// not yet due; otherwise, and in those cases, it waits for a worker as
  /// a `submit` caller would.  A batch the caller runs may also answer
  /// other callers' requests, and its forward uses `ws` (which then
  /// keeps that batch's buffers) and the slot's `ExecContext`.
  ///
  /// Throws what `submit` throws at admission, and what the future's
  /// `get()` would throw afterwards: RequestShedError,
  /// DeadlineExceededError or the inference failure.  Those errors are
  /// safe to read on the calling thread: a thread that fails a request
  /// with an exception does so, and drops its references to it, under
  /// the server mutex, and `infer` re-takes that mutex before it
  /// rethrows, so even ThreadSanitizer, which cannot see libstdc++'s
  /// exception refcount, sees the error's last free ordered after the
  /// caller's read.  The server must outlive every `infer` call.
  void infer(const ModelHandle& model, const Tensor& sample, Tensor& out,
             Workspace& ws, const SubmitOptions& options = {});

  /// Block until every model's queue is empty and no batch is in flight.
  void drain();

  /// Stop admissions, serve every queued request, join the workers, and
  /// wait until no `infer` caller is still running a batch.  Idempotent.
  void shutdown();

  /// Total queued requests across all models / for one model (all
  /// versions of the name).
  std::size_t queue_depth() const;
  std::size_t queue_depth(const std::string& name) const;
  /// Batch slots currently held by a worker or an `infer` caller; never
  /// more than `ServeConfig::workers`.
  std::size_t busy_slots() const;

  const ServeConfig& config() const { return config_; }

 private:
  using ModelPtr = std::shared_ptr<detail::LoadedModel>;

  /// One batch slot: the kernel context and batch buffer of whichever
  /// thread holds it, a worker or an `infer` caller.
  struct Slot {
    explicit Slot(std::size_t intra_op_threads) : ctx(intra_op_threads) {}
    ExecContext ctx;
    std::vector<detail::Request> batch;  ///< the batch being run
  };

  /// The server clock: `config_.now_fn` when injected, else the
  /// monotonic telemetry clock.  Called both under and outside mutex_.
  std::uint64_t now_ns() const;
  /// The instant a worker's scheduling decision is made at (mutex_
  /// held): the live clock, or under an injected clock `event_ns_`.
  std::uint64_t decision_ns() const;

  /// Validate `sample` against `model` and build its queue entry.
  detail::Request make_request(const detail::LoadedModel& model,
                               const Tensor& sample, Tensor& out,
                               const SubmitOptions& options) const;
  /// Admission (mutex_ held): the stop/retire/shape/capacity checks, the
  /// priority shed, and the enqueue.  Throws on rejection.
  void admit(detail::LoadedModel& model, detail::Request&& request);

  void worker_loop();
  /// Run one batch on `slot` (mutex_ held through `lock`, released
  /// around the forward): the weighted fair pick, the dequeue-time
  /// deadline sweep, batch composition, `run_batch` and the in-flight
  /// accounting.  Returns false, touching no queue, when nothing is
  /// flushable at the decision instant.
  bool run_one_batch(std::unique_lock<std::mutex>& lock, Slot& slot,
                     Workspace& ws, bool inline_caller);
  /// Forward one composed batch and answer each request.  A failure
  /// propagates; failing the batch's requests is the caller's job.
  void run_batch(detail::LoadedModel& model,
                 std::vector<detail::Request>& batch, Workspace& ws,
                 const ExecContext& ctx) const;
  /// Mark `models` retired and prune already-idle ones from the scan
  /// list (the worker pool prunes the rest as their queues drain).
  void retire(const std::vector<ModelPtr>& models);

  ModelRegistry registry_;
  ServeConfig config_;

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;  ///< work and a free slot / stop requested
  std::condition_variable idle_cv_;  ///< all queues drained and workers idle
  /// Model versions the workers scan: every loaded version, including
  /// retired ones still draining.  Entries leave when retired with an
  /// empty queue and nothing in flight.
  std::vector<ModelPtr> active_;
  /// Bumped (under mutex_) whenever queue state changes in a way that
  /// can move a flush deadline earlier — a submit, a retirement.  A
  /// worker parked on the earliest deadline it computed re-parks only
  /// while the generation holds, so a new submission with a shorter
  /// per-model max_delay_us forces a rescan instead of waiting out a
  /// stale later deadline.
  std::uint64_t work_generation_ = 0;
  /// The fair scheduler's virtual clock: the vtime of the most recently
  /// picked model.  A model going idle→busy rejoins at this value, so
  /// idle time never accrues into a catch-up burst (serve/sla.hpp).
  double vclock_ = 0.0;
  /// Latest queue event (admission, retirement, shutdown) on the server
  /// clock.  Under an injected clock workers decide as of this instant
  /// instead of re-reading the clock, so a virtual-clock run's outcome
  /// is fixed by its events and their times, never by when a worker
  /// thread happens to wake relative to the test advancing the clock.
  std::uint64_t event_ns_ = 0;
  std::size_t total_queued_ = 0;
  std::size_t total_in_flight_ = 0;
  bool stopping_ = false;
  std::vector<Slot> slots_;          ///< `workers` of them, never resized
  std::vector<Slot*> free_slots_;    ///< slots no thread holds
  std::vector<std::thread> workers_;
};

}  // namespace ccq::serve
