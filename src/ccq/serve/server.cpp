#include "ccq/serve/server.hpp"

#include <algorithm>
#include <chrono>

#include "ccq/common/telemetry.hpp"
#include "ccq/serve/artifact.hpp"

namespace ccq::serve {

namespace {

using Clock = std::chrono::steady_clock;

/// The scheduler's view of one model at a decision instant.  All
/// flush/park/pick policy lives in serve/sla.hpp as pure functions over
/// this view — the deterministic scheduler tests drive the same code.
SchedView sched_view(const detail::LoadedModel& model, bool stopping) {
  SchedView view;
  view.queued = model.queue.size();
  if (view.queued > 0) {
    view.oldest_ns = model.queue.oldest_enqueue_ns();
    view.earliest_deadline_ns = model.queue.earliest_deadline_ns();
  }
  view.max_batch = model.config.max_batch;
  view.max_delay_ns = model.config.max_delay_us * 1000;
  view.force = stopping || model.retired;
  view.vtime = model.vtime;
  return view;
}

/// The telemetry clock is the steady clock in nanoseconds, so a park
/// deadline computed in server-clock ns maps back onto a wait_until
/// time point exactly (real-clock mode only — an injected clock parks
/// untimed, see ServeConfig::now_fn).
Clock::time_point to_time_point(std::uint64_t ns) {
  return Clock::time_point(std::chrono::duration_cast<Clock::duration>(
      std::chrono::nanoseconds(ns)));
}

}  // namespace

std::uint64_t InferenceServer::now_ns() const {
  return config_.now_fn ? config_.now_fn() : telemetry::ScopedTimer::now_ns();
}

InferenceServer::InferenceServer(ServeConfig config) : config_(config) {
  CCQ_CHECK(config_.workers >= 1, "server needs at least one worker");
  workers_.reserve(config_.workers);
  for (std::size_t i = 0; i < config_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

InferenceServer::~InferenceServer() { shutdown(); }

ModelHandle InferenceServer::load(std::string name, hw::IntegerNetwork net,
                                  ModelConfig config) {
  // Publish under the server mutex: the new version becomes resolvable
  // only together with its owner and its slot in the worker pool's scan
  // list, so a resolve+submit racing the load never sees a half-loaded
  // version (and a racing shutdown either precedes or follows it whole).
  std::lock_guard<std::mutex> lock(mutex_);
  if (stopping_) throw ServerStoppedError();
  ModelHandle handle = registry_.publish(std::move(name), std::move(net),
                                         config);
  handle.model_->owner = this;
  active_.push_back(handle.model_);
  return handle;
}

ModelHandle InferenceServer::load(std::string name,
                                  const std::string& artifact_path,
                                  ModelConfig config) {
  return load(std::move(name), load_artifact(artifact_path), config);
}

void InferenceServer::unload(const std::string& name) {
  retire(registry_.take_all(name));
}

void InferenceServer::unload(const std::string& name, std::uint64_t version) {
  retire(registry_.take(name, version));
}

void InferenceServer::retire(const std::vector<ModelPtr>& models) {
  if (models.empty()) return;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++work_generation_;  // retired queues flush immediately: force rescans
    for (const ModelPtr& model : models) {
      model->retired = true;
      if (model->queue.empty() && model->in_flight == 0) {
        active_.erase(std::remove(active_.begin(), active_.end(), model),
                      active_.end());
      }
    }
  }
  // Wake the pool: retired queues flush immediately (no deadline hold).
  work_cv_.notify_all();
}

ModelHandle InferenceServer::resolve(const std::string& name) const {
  return registry_.resolve(name);
}

ModelHandle InferenceServer::resolve(const std::string& name,
                                     std::uint64_t version) const {
  return registry_.resolve(name, version);
}

std::future<void> InferenceServer::submit(const ModelHandle& model,
                                          const Tensor& sample, Tensor& out) {
  return submit(model, sample, out, SubmitOptions{});
}

std::future<void> InferenceServer::submit(const ModelHandle& model,
                                          const Tensor& sample, Tensor& out,
                                          const SubmitOptions& options) {
  CCQ_CHECK(sample.rank() == 3,
            "submit expects one CHW sample, got rank " +
                std::to_string(sample.rank()));
  detail::LoadedModel& loaded = model.model();
  CCQ_CHECK(options.rung < static_cast<std::int32_t>(loaded.net.rung_count()),
            "operating-point override " + std::to_string(options.rung) +
                " out of range: model " + loaded.name + " serves " +
                std::to_string(loaded.net.rung_count()) + " rung(s)");
  detail::Request request;
  request.input = &sample;
  request.output = &out;
  request.priority = options.priority;
  request.rung = options.rung < 0 ? -1 : options.rung;
  request.served_rung = options.served_rung;
  request.enqueue_ns = now_ns();
  request.deadline_us = options.deadline_us;
  // A deadline is a *relative* budget, so it cannot be expired at
  // admission; expiry is checked at dequeue (batch composition) time.
  request.deadline_ns = deadline_instant_ns(request.enqueue_ns,
                                            options.deadline_us);
  std::future<void> future = request.promise.get_future();
  // Shed victim, failed outside the lock (set_exception wakes a waiter).
  detail::Request shed;
  bool did_shed = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    CCQ_CHECK(loaded.owner == this,
              "ModelHandle for " + loaded.name + " v" +
                  std::to_string(loaded.version) +
                  " was not loaded into this server");
    if (stopping_) {
      telemetry::add(telemetry::Counter::kServeRejected);
      telemetry::add_named(loaded.metrics.rejected);
      throw ServerStoppedError();
    }
    if (loaded.retired) {
      telemetry::add(telemetry::Counter::kServeRejected);
      telemetry::add_named(loaded.metrics.rejected);
      throw ModelRetiredError(loaded.name, loaded.version);
    }
    if (loaded.pinned_shape.empty()) {
      // Only a geometry the compiled network accepts may pin the batch
      // shape: over the TCP front end the first request is untrusted,
      // and an unchecked pin would both drive the engine's conv loops
      // from hostile dims and poison every later well-formed submit.
      try {
        loaded.net.check_input(sample.dim(0), sample.dim(1), sample.dim(2));
      } catch (const Error&) {
        telemetry::add(telemetry::Counter::kServeRejected);
        telemetry::add_named(loaded.metrics.rejected);
        throw;
      }
      loaded.pinned_shape = sample.shape();
    } else {
      CCQ_CHECK(sample.shape() == loaded.pinned_shape,
                "sample shape " + shape_str(sample.shape()) +
                    " does not match the input shape " +
                    shape_str(loaded.pinned_shape) + " pinned for model " +
                    loaded.name + " v" + std::to_string(loaded.version));
    }
    if (loaded.queue.size() >= loaded.config.queue_capacity) {
      // Shed lowest-priority-first: evict the oldest request of the
      // lowest class when the incomer strictly outranks it (it has
      // absorbed the most queueing delay, so under overload it is the
      // most likely to miss its SLA anyway); otherwise the incomer is
      // the lowest and is the one shed — so a high-priority request is
      // never rejected while lower-priority work is queued.
      if (loaded.queue.lowest() < request.priority) {
        shed = loaded.queue.shed_lowest();
        did_shed = true;
        --total_queued_;
        telemetry::add(telemetry::Counter::kServeShed);
        telemetry::add_named(
            loaded.metrics.shed[static_cast<std::size_t>(shed.priority)]);
      } else {
        telemetry::add(telemetry::Counter::kServeRejected);
        telemetry::add_named(loaded.metrics.rejected);
        telemetry::add(telemetry::Counter::kServeShed);
        telemetry::add_named(
            loaded.metrics.shed[static_cast<std::size_t>(request.priority)]);
        throw QueueFullError(loaded.name, loaded.config.queue_capacity);
      }
    }
    if (loaded.queue.empty()) {
      // Idle→busy: rejoin the fair scheduler at its virtual clock so
      // the idle period never turns into a catch-up burst.
      loaded.vtime = std::max(loaded.vtime, vclock_);
    }
    loaded.queue.push(std::move(request));
    ++loaded.admitted;
    ++work_generation_;
    ++total_queued_;
    telemetry::add(telemetry::Counter::kServeRequests);
    telemetry::add_named(loaded.metrics.requests);
    telemetry::set_gauge(telemetry::Gauge::kServeQueueDepth,
                         static_cast<double>(total_queued_));
    telemetry::set_named_gauge(loaded.metrics.queue_depth,
                               static_cast<double>(loaded.queue.size()));
  }
  // notify_all: a worker parked on a batch-fill deadline only re-checks
  // its predicate on wakeup, and the notified thread is not guaranteed to
  // be the one able to take the work.
  work_cv_.notify_all();
  if (did_shed) {
    shed.promise.set_exception(std::make_exception_ptr(
        RequestShedError(loaded.name, shed.priority)));
  }
  return future;
}

std::future<void> InferenceServer::submit(const std::string& name,
                                          const Tensor& sample, Tensor& out) {
  return submit(resolve(name), sample, out);
}

void InferenceServer::worker_loop() {
  // Worker-owned execution state: a warm workspace (per-thread arenas
  // make reuse cache-local) and a private context so concurrent workers
  // never contend for the process-global pool.
  Workspace ws;
  const ExecContext ctx(config_.intra_op_threads);
  std::vector<detail::Request> batch;
  std::vector<detail::Request> expired;

  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    work_cv_.wait(lock, [&] { return stopping_ || total_queued_ > 0; });
    if (total_queued_ == 0) {
      if (stopping_) return;  // drained: stop only once every queue is empty
      continue;
    }
    // Weighted fair pick (serve/sla.hpp): among flushable models, the
    // one with the least virtual time goes next.  If nothing is
    // flushable yet, park until the earliest flush/deadline event and
    // rescan.
    const std::uint64_t now = now_ns();
    ModelPtr target;
    SchedView target_view;
    for (const ModelPtr& model : active_) {
      const SchedView view = sched_view(*model, stopping_);
      if (!sla_flushable(view, now)) continue;
      if (!target || sla_prefer(view, target_view)) {
        target = model;
        target_view = view;
      }
    }
    if (!target) {
      std::uint64_t earliest = kNoEventNs;
      for (const ModelPtr& model : active_) {
        earliest =
            std::min(earliest, sla_next_event_ns(sched_view(*model, stopping_)));
      }
      // `earliest` is stale the moment queue state changes: a new submit
      // to a model with a shorter max_delay_us (or a tighter deadline)
      // creates an earlier event, and re-parking until the old one would
      // violate that model's latency bound.  The generation bump makes
      // the predicate pass so the outer loop re-derives the event set.
      const std::uint64_t parked_generation = work_generation_;
      const auto parked = [&] {
        if (stopping_ || work_generation_ != parked_generation) return true;
        const std::uint64_t tick = now_ns();
        return std::any_of(active_.begin(), active_.end(),
                           [&](const ModelPtr& model) {
                             return sla_flushable(sched_view(*model, stopping_),
                                                  tick);
                           });
      };
      if (config_.now_fn || earliest == kNoEventNs) {
        // No timed event (queued work can only become flushable through
        // a queue-state change), or an injected clock, where a timed
        // park against the real clock would be meaningless.  Either way
        // the park must yield the mutex — `continue` with a satisfied
        // wait predicate would spin without ever releasing it.
        work_cv_.wait(lock, parked);
      } else {
        work_cv_.wait_until(lock, to_time_point(earliest), parked);
      }
      continue;  // rescan with fresh deadlines
    }

    detail::LoadedModel& model = *target;
    // Advance the scheduler's virtual clock to the pick.
    vclock_ = std::max(vclock_, model.vtime);

    // Dequeue-time expiry sweep: requests whose deadline passed are
    // dropped before batch composition, so an expired request never
    // occupies a batch slot.  Their futures fail outside the lock.
    expired.clear();
    model.queue.expire(now, [&](detail::Request&& request) {
      expired.push_back(std::move(request));
    });
    if (!expired.empty()) {
      total_queued_ -= expired.size();
      model.deadline_misses += expired.size();
      telemetry::add(telemetry::Counter::kServeDeadlineMiss, expired.size());
      telemetry::add_named(model.metrics.deadline_miss, expired.size());
    }

    batch.clear();
    std::int32_t batch_rung = 0;
    if (!model.queue.empty()) {
      // Fix the batch's operating point before touching the queue: the
      // front request's explicit override wins, otherwise the model's
      // controller decides from the observed load (queue depth plus the
      // deadline-pressure window).  Only requests compatible with that
      // rung (no preference, or the same override) join the batch — a
      // batch is always one precision, structurally.
      batch_rung = model.queue.front().rung >= 0
                       ? model.queue.front().rung
                       : static_cast<std::int32_t>(model.point.decide(
                             {model.queue.size(), now, model.admitted,
                              model.deadline_misses}));
      batch.reserve(std::min(model.queue.size(), model.config.max_batch));
      while (batch.size() < model.config.max_batch && !model.queue.empty()) {
        const detail::Request& front = model.queue.front();
        if (front.rung >= 0 && front.rung != batch_rung) break;
        batch.push_back(model.queue.pop_front());
      }
    }
    const std::size_t take = batch.size();
    // Charge the fair scheduler: vtime grows by served samples over
    // weight, so a heavier model drains proportionally more batches.
    model.vtime += static_cast<double>(take) / model.config.weight;
    model.in_flight += take;
    total_queued_ -= take;
    total_in_flight_ += take;
    telemetry::set_gauge(telemetry::Gauge::kServeQueueDepth,
                         static_cast<double>(total_queued_));
    telemetry::set_named_gauge(model.metrics.queue_depth,
                               static_cast<double>(model.queue.size()));
    const bool more_work = total_queued_ > 0;
    lock.unlock();
    for (detail::Request& request : expired) {
      request.promise.set_exception(std::make_exception_ptr(
          DeadlineExceededError(model.name, request.deadline_us)));
    }
    expired.clear();
    if (more_work) work_cv_.notify_all();  // more work queued: wake peers
    if (take > 0) {
      run_batch(model, batch, ws, ctx, static_cast<std::size_t>(batch_rung));
    }
    lock.lock();
    model.in_flight -= take;
    total_in_flight_ -= take;
    if (model.retired && model.queue.empty() && model.in_flight == 0) {
      active_.erase(std::remove(active_.begin(), active_.end(), target),
                    active_.end());
    }
    if (total_queued_ == 0 && total_in_flight_ == 0) idle_cv_.notify_all();
  }
}

void InferenceServer::run_batch(detail::LoadedModel& model,
                                std::vector<detail::Request>& batch,
                                Workspace& ws, const ExecContext& ctx,
                                std::size_t rung) const {
  const std::size_t n = batch.size();
  telemetry::add(telemetry::Counter::kServeBatches);
  telemetry::add_named(model.metrics.batches);
  telemetry::record_duration(telemetry::Timer::kServeBatchSize, n);
  telemetry::record_named_duration(model.metrics.batch_size, n);
  try {
    const Shape& chw = batch.front().input->shape();
    Tensor staging = ws.tensor_uninit({n, chw[0], chw[1], chw[2]});
    const std::size_t sample_floats = shape_numel(chw);
    for (std::size_t i = 0; i < n; ++i) {
      const auto src = batch[i].input->data();
      std::copy(src.begin(), src.end(),
                staging.data().begin() +
                    static_cast<std::ptrdiff_t>(i * sample_floats));
    }
    Tensor logits = model.net.forward(staging, ws, ctx, rung);
    ws.recycle(std::move(staging));
    const std::size_t classes = logits.dim(1);
    for (std::size_t i = 0; i < n; ++i) {
      Tensor& out = *batch[i].output;
      out.resize({classes});
      const auto row = logits.data().subspan(i * classes, classes);
      std::copy(row.begin(), row.end(), out.data().begin());
      if (batch[i].served_rung != nullptr) {
        *batch[i].served_rung = static_cast<std::int32_t>(rung);
      }
      const std::uint64_t latency = now_ns() - batch[i].enqueue_ns;
      telemetry::record_duration(telemetry::Timer::kServeLatency, latency);
      telemetry::record_named_duration(model.metrics.latency, latency);
      telemetry::record_named_duration(
          model.metrics.latency_by_priority[static_cast<std::size_t>(
              batch[i].priority)],
          latency);
      batch[i].promise.set_value();
    }
    ws.recycle(std::move(logits));
    if (model.config.slo_us > 0 && telemetry::metrics_enabled()) {
      // p99-vs-SLO gauge over the model's lifetime latency histogram:
      // > 1 means the p99 budget is being violated.
      const telemetry::TimerStats stats =
          telemetry::named_timer_stats(model.metrics.latency);
      if (stats.count > 0) {
        const double p99_us =
            static_cast<double>(telemetry::approx_quantile(stats, 0.99)) /
            1000.0;
        telemetry::set_named_gauge(
            model.metrics.p99_vs_slo,
            p99_us / static_cast<double>(model.config.slo_us));
      }
    }
  } catch (...) {
    // A failed batch fails each of its requests; later batches are
    // unaffected (the engine has no mutable state).
    const std::exception_ptr error = std::current_exception();
    for (detail::Request& request : batch) {
      try {
        request.promise.set_exception(error);
      } catch (const std::future_error&) {
        // promise already satisfied (failure struck mid-reply loop)
      }
    }
  }
}

void InferenceServer::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock,
                [&] { return total_queued_ == 0 && total_in_flight_ == 0; });
}

void InferenceServer::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_ && workers_.empty()) return;  // already shut down
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (auto& worker : workers_) worker.join();
  workers_.clear();
}

std::size_t InferenceServer::queue_depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_queued_;
}

std::size_t InferenceServer::queue_depth(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t depth = 0;
  for (const ModelPtr& model : active_) {
    if (model->name == name) depth += model->queue.size();
  }
  return depth;
}

}  // namespace ccq::serve
