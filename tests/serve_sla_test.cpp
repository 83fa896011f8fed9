// Deterministic scheduler tests for the serving SLA layer
// (serve/sla.hpp + the InferenceServer paths that consume it).
//
// Three tiers, all exact — no sleeps, no probabilistic assertions:
//
//   1. SlaQueue / deadline-arithmetic unit tests: shed order (lowest
//      class first, FIFO within a class), dequeue order (highest class
//      first), the expiry sweep, and the saturating relative→absolute
//      deadline conversion for hostile budgets.
//   2. A thread-free scheduler simulator over the *same* primitives the
//      server's worker loop uses (`SchedView`, `sla_flushable`,
//      `sla_next_event_ns`, `sla_prefer`, `SlaQueue`) driven on a
//      virtual clock: fair-share convergence for 1:1 and 1:4 weights
//      under saturating two-model load, starvation freedom of a quiet
//      model, and the combined mixed-priority acceptance scenario — no
//      high-priority request shed while lower-priority work is queued,
//      expired requests never occupy a batch slot, served shares within
//      10% of the configured weights.
//   3. InferenceServer integration under an injected virtual clock
//      (`ServeConfig::now_fn`, one worker): shed-lowest-first through
//      real submit futures, deadline expiry at dequeue (never at
//      admission), u64-max deadline saturation, the work-conserving
//      default (`ModelConfig{}` never holds a lone request), the exact
//      `serve.<name>.stage.queue` sum, plus the harness
//      offered/admitted accounting regression.
//
// Labelled `sla` and run under the TSan quick tier, CI's `tsan`
// job and both CI legs.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <future>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "ccq/common/telemetry.hpp"
#include "ccq/models/simple.hpp"
#include "ccq/serve/harness.hpp"

namespace ccq::serve {
namespace {

constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();

// ---- tier 1: queue + deadline primitives -----------------------------------

/// The minimal request shape SlaQueue needs (the server's
/// detail::Request carries the same three fields plus payload).
struct SimRequest {
  Priority priority = Priority::kNormal;
  std::uint64_t enqueue_ns = 0;
  std::uint64_t deadline_ns = 0;
  int id = 0;
};

SimRequest req(int id, Priority priority, std::uint64_t enqueue_ns = 0,
               std::uint64_t deadline_ns = 0) {
  return SimRequest{priority, enqueue_ns, deadline_ns, id};
}

TEST(SlaQueueTest, DequeuesHighestClassFirstFifoWithin) {
  SlaQueue<SimRequest> q;
  q.push(req(1, Priority::kLow));
  q.push(req(2, Priority::kNormal));
  q.push(req(3, Priority::kHigh));
  q.push(req(4, Priority::kNormal));
  q.push(req(5, Priority::kHigh));
  std::vector<int> order;
  while (!q.empty()) order.push_back(q.pop_front().id);
  EXPECT_EQ(order, (std::vector<int>{3, 5, 2, 4, 1}));
}

TEST(SlaQueueTest, ShedsLowestClassFirstFifoWithin) {
  SlaQueue<SimRequest> q;
  q.push(req(1, Priority::kNormal));
  q.push(req(2, Priority::kLow));
  q.push(req(3, Priority::kLow));
  q.push(req(4, Priority::kHigh));
  EXPECT_EQ(q.lowest(), Priority::kLow);
  EXPECT_EQ(q.shed_lowest().id, 2);  // oldest of the lowest class
  EXPECT_EQ(q.shed_lowest().id, 3);
  EXPECT_EQ(q.lowest(), Priority::kNormal);
  EXPECT_EQ(q.shed_lowest().id, 1);
  EXPECT_EQ(q.lowest(), Priority::kHigh);
  EXPECT_EQ(q.shed_lowest().id, 4);
  EXPECT_TRUE(q.empty());
}

TEST(SlaQueueTest, ExpireSweepsOnlyExpiredAcrossClasses) {
  SlaQueue<SimRequest> q;
  q.push(req(1, Priority::kLow, 0, 100));
  q.push(req(2, Priority::kLow, 0, 500));
  q.push(req(3, Priority::kHigh, 0, 150));
  q.push(req(4, Priority::kNormal, 0, 0));  // no deadline
  EXPECT_EQ(q.earliest_deadline_ns(), 100u);
  std::vector<int> dropped;
  q.expire(200, [&](SimRequest&& r) { dropped.push_back(r.id); });
  // Shed order: lowest class first, FIFO within.
  EXPECT_EQ(dropped, (std::vector<int>{1, 3}));
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.earliest_deadline_ns(), 500u);
  dropped.clear();
  q.expire(kU64Max, [&](SimRequest&& r) { dropped.push_back(r.id); });
  EXPECT_EQ(dropped, (std::vector<int>{2}));  // id 4 has no deadline
  EXPECT_EQ(q.front().id, 4);
}

TEST(SlaQueueTest, OldestEnqueueSpansClasses) {
  SlaQueue<SimRequest> q;
  q.push(req(1, Priority::kHigh, 300));
  q.push(req(2, Priority::kLow, 100));
  q.push(req(3, Priority::kNormal, 200));
  EXPECT_EQ(q.oldest_enqueue_ns(), 100u);
  EXPECT_EQ(q.front().id, 1);  // dequeue order is by class, not age
}

TEST(DeadlineInstantTest, SaturatesHostileBudgets) {
  EXPECT_EQ(deadline_instant_ns(123, 0), 0u);  // 0 = no deadline
  EXPECT_EQ(deadline_instant_ns(0, 100), 100'000u);
  EXPECT_EQ(deadline_instant_ns(1'000, 100), 101'000u);
  // u64-max budget: the us→ns scale would wrap; must clamp, not wrap.
  EXPECT_EQ(deadline_instant_ns(0, kU64Max), kU64Max);
  EXPECT_EQ(deadline_instant_ns(kU64Max / 2, kU64Max), kU64Max);
  // The addition saturates too.
  EXPECT_EQ(deadline_instant_ns(kU64Max - 5, kU64Max / 1000), kU64Max);
  EXPECT_FALSE(deadline_expired(0, kU64Max));  // no deadline never expires
  EXPECT_TRUE(deadline_expired(100, 100));
  EXPECT_FALSE(deadline_expired(101, 100));
}

TEST(PriorityTest, NamesRoundTrip) {
  for (const Priority p :
       {Priority::kLow, Priority::kNormal, Priority::kHigh}) {
    EXPECT_EQ(priority_from_string(priority_name(p)), p);
  }
  EXPECT_THROW(priority_from_string("urgent"), Error);
}

// ---- tier 2: thread-free scheduler simulator -------------------------------

/// One simulated model: the same queue type and accounting the server's
/// LoadedModel carries, minus the network.
struct SimModel {
  SlaQueue<SimRequest> queue;
  double weight = 1.0;
  std::size_t capacity = 16;
  std::size_t max_batch = 4;
  std::uint64_t max_delay_ns = 1'000'000;
  double vtime = 0.0;
  std::size_t served = 0;
  std::vector<SimRequest> shed;
  std::vector<SimRequest> expired;
  std::vector<std::uint64_t> latency_ns;  // virtual enqueue→serve
};

/// The scheduler under test: admission + pick + flush, all on a virtual
/// clock, reproducing the exact decision code the server runs under its
/// mutex (sla.hpp free functions over SchedView).
struct SimScheduler {
  std::vector<SimModel*> models;
  std::uint64_t now = 0;
  double vclock = 0.0;
  std::uint64_t batch_cost_ns = 1'000;  ///< virtual service time per flush

  static SchedView view(const SimModel& m) {
    SchedView v;
    v.queued = m.queue.size();
    if (v.queued > 0) {
      v.oldest_ns = m.queue.oldest_enqueue_ns();
      v.earliest_deadline_ns = m.queue.earliest_deadline_ns();
    }
    v.max_batch = m.max_batch;
    v.max_delay_ns = m.max_delay_ns;
    v.vtime = m.vtime;
    return v;
  }

  /// The server's admission policy (submit()'s queue-full block).
  /// Returns false when rejected (QueueFullError's condition).
  bool admit(SimModel& m, SimRequest r) {
    r.enqueue_ns = now;
    if (m.queue.size() >= m.capacity) {
      if (m.queue.lowest() < r.priority) {
        m.shed.push_back(m.queue.shed_lowest());
      } else {
        return false;
      }
    }
    if (m.queue.empty()) m.vtime = std::max(m.vtime, vclock);
    m.queue.push(std::move(r));
    return true;
  }

  /// One worker turn: pick the fair-share winner among flushable
  /// models (advancing the clock to the next event when none is due),
  /// run the expiry sweep, take a batch, charge vtime.  Returns the
  /// flushed model, or nullptr when every queue is empty.
  SimModel* step() {
    for (;;) {
      SimModel* target = nullptr;
      SchedView target_view;
      for (SimModel* m : models) {
        const SchedView v = view(*m);
        if (!sla_flushable(v, now)) continue;
        if (!target || sla_prefer(v, target_view)) {
          target = m;
          target_view = v;
        }
      }
      if (target) {
        vclock = std::max(vclock, target->vtime);
        target->queue.expire(now, [&](SimRequest&& r) {
          target->expired.push_back(std::move(r));
        });
        std::size_t take = 0;
        while (take < target->max_batch && !target->queue.empty()) {
          SimRequest r = target->queue.pop_front();
          // The acceptance property: a request in a batch is never
          // expired at the instant the batch was composed.
          EXPECT_FALSE(deadline_expired(r.deadline_ns, now));
          target->latency_ns.push_back(now - r.enqueue_ns);
          ++take;
        }
        target->vtime += static_cast<double>(take) / target->weight;
        target->served += take;
        now += batch_cost_ns;
        return target;
      }
      // Nothing due: park until the earliest flush/deadline event —
      // the virtual analogue of the worker's wait_until.
      std::uint64_t earliest = kNoEventNs;
      for (SimModel* m : models) {
        earliest = std::min(earliest, sla_next_event_ns(view(*m)));
      }
      if (earliest == kNoEventNs) return nullptr;  // all queues empty
      now = std::max(now, earliest);
    }
  }
};

void expect_share_within(const SimModel& a, const SimModel& b,
                         double target_a_over_b, double tolerance) {
  ASSERT_GT(b.served, 0u);
  const double ratio =
      static_cast<double>(a.served) / static_cast<double>(b.served);
  EXPECT_NEAR(ratio, target_a_over_b, target_a_over_b * tolerance)
      << "served " << a.served << " vs " << b.served;
}

/// Keep a model saturated: top its queue back up to capacity.
void top_up(SimScheduler& sched, SimModel& m, Priority priority, int& next_id) {
  while (m.queue.size() < m.capacity) {
    ASSERT_TRUE(sched.admit(m, req(next_id++, priority)));
  }
}

TEST(FairShareTest, EqualWeightsConvergeToEqualShares) {
  SimModel a, b;
  SimScheduler sched;
  sched.models = {&a, &b};
  int id = 0;
  for (int round = 0; round < 400; ++round) {
    top_up(sched, a, Priority::kNormal, id);
    top_up(sched, b, Priority::kNormal, id);
    ASSERT_NE(sched.step(), nullptr);
  }
  expect_share_within(a, b, 1.0, 0.10);
}

TEST(FairShareTest, FourToOneWeightsConvergeToFourToOneShares) {
  SimModel a, b;
  a.weight = 4.0;
  b.weight = 1.0;
  SimScheduler sched;
  sched.models = {&a, &b};
  int id = 0;
  for (int round = 0; round < 500; ++round) {
    top_up(sched, a, Priority::kNormal, id);
    top_up(sched, b, Priority::kNormal, id);
    ASSERT_NE(sched.step(), nullptr);
  }
  expect_share_within(a, b, 4.0, 0.10);
}

TEST(FairShareTest, QuietModelNeverStarvesBehindHotOne) {
  SimModel hot, quiet;
  quiet.max_delay_ns = 500;  // age-triggered flush for single requests
  SimScheduler sched;
  sched.models = {&hot, &quiet};
  int id = 0;
  std::size_t quiet_sent = 0;
  for (int round = 0; round < 600; ++round) {
    top_up(sched, hot, Priority::kNormal, id);
    if (round % 25 == 0) {
      // One quiet request every 25 hot batches.
      ASSERT_TRUE(sched.admit(quiet, req(id++, Priority::kNormal)));
      ++quiet_sent;
    }
    ASSERT_NE(sched.step(), nullptr);
  }
  // Drain whatever quiet request is still queued.
  while (!quiet.queue.empty()) ASSERT_NE(sched.step(), nullptr);
  ASSERT_GE(quiet_sent, 20u);
  ASSERT_EQ(quiet.served, quiet_sent);
  // Starvation freedom, exactly: a quiet request waits at most its own
  // batching delay plus one hot batch already due ahead of it.  With a
  // factor-2 allowance for the idle→busy vclock rejoin, every quiet
  // latency (hence its p99) stays bounded — it never waits out the hot
  // backlog.
  const std::uint64_t bound = quiet.max_delay_ns + 2 * sched.batch_cost_ns;
  for (const std::uint64_t latency : quiet.latency_ns) {
    EXPECT_LE(latency, bound);
  }
}

TEST(FairShareTest, MixedPriorityAcceptanceScenario) {
  // The ISSUE acceptance criteria, asserted exactly under saturating
  // two-model mixed-priority load:
  //   * no high-priority request is shed while a lower-priority request
  //     is queued for the same model,
  //   * expired requests never occupy a batch slot (asserted inside
  //     SimScheduler::step),
  //   * each model's served share converges within 10% of its weight.
  SimModel a, b;
  a.weight = 4.0;
  b.weight = 1.0;
  a.capacity = b.capacity = 8;
  SimScheduler sched;
  sched.models = {&a, &b};
  int id = 0;
  std::size_t rejections = 0;
  for (int round = 0; round < 500; ++round) {
    for (SimModel* m : sched.models) {
      // Offer a saturating burst of mixed priorities; high-priority
      // requests carry a deadline two batch-times out, so on the model
      // that drains slowly (weight 1) some must expire while queued.
      for (int k = 0; k < 6; ++k) {
        const Priority pri = static_cast<Priority>(id % 3);
        SimRequest r = req(id, pri);
        if (pri == Priority::kHigh) {
          r.deadline_ns = sched.now + 2 * sched.batch_cost_ns;
        }
        ++id;
        const bool was_full = m->queue.size() >= m->capacity;
        const Priority lowest_queued =
            m->queue.empty() ? Priority::kHigh : m->queue.lowest();
        const std::size_t shed_before = m->shed.size();
        const bool admitted = sched.admit(*m, std::move(r));
        if (!admitted) {
          // Rejection is legal only when nothing queued ranks below the
          // incomer — the "no high shed while lower queued" contract
          // seen from the door.
          ASSERT_TRUE(was_full);
          EXPECT_GE(lowest_queued, pri);
          ++rejections;
        } else if (m->shed.size() > shed_before) {
          // An eviction must take the lowest class present, and only
          // for a strictly higher-priority incomer.
          EXPECT_EQ(m->shed.back().priority, lowest_queued);
          EXPECT_LT(m->shed.back().priority, pri);
        }
      }
    }
    ASSERT_NE(sched.step(), nullptr);
  }
  // The load was saturating: admission control and the expiry sweep
  // both actually engaged.
  EXPECT_GT(rejections, 0u);
  EXPECT_FALSE(a.shed.empty());
  EXPECT_GT(a.expired.size() + b.expired.size(), 0u);
  // No shed victim anywhere outranks any class that was ever queued
  // behind it: in particular, a high-priority victim is impossible while
  // the offered mix keeps lower classes arriving.
  for (const SimModel* m : sched.models) {
    for (const SimRequest& victim : m->shed) {
      EXPECT_LT(victim.priority, Priority::kHigh);
    }
  }
  expect_share_within(a, b, 4.0, 0.10);
}

// ---- tier 3: server integration under an injected clock --------------------

Tensor make_inputs(std::size_t n) {
  Tensor x({n, 3, 8, 8});
  auto data = x.data();
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<float>((i * 2654435761u >> 8) & 255u) / 255.0f;
  }
  return x;
}

hw::IntegerNetwork make_network() {
  models::ModelConfig mc;
  mc.num_classes = 5;
  mc.image_size = 8;
  mc.width_multiplier = 0.25f;
  quant::QuantFactory factory{.policy = quant::Policy::kMinMax};
  auto model =
      models::make_simple_cnn(mc, factory, quant::BitLadder({8, 4, 2}));
  quant::LayerRegistry& registry = model.registry();
  for (std::size_t i = 0; i < registry.size(); ++i) {
    registry.set_ladder_pos(i, i % 3);
  }
  Workspace ws;
  model.set_training(true);
  model.forward(make_inputs(8), ws);
  model.set_training(false);
  return hw::IntegerNetwork::compile(model);
}

/// A server on a virtual clock: one worker, time advances only when the
/// test says so.  Under the default zero hold every submit is flushable
/// at once; tests that set a hold trigger flushes by filling max_batch
/// or by shutdown.
struct VirtualClockServer {
  std::atomic<std::uint64_t> now{1'000};
  InferenceServer server;

  explicit VirtualClockServer(std::size_t workers = 1)
      : server(make_config(workers)) {}

  ServeConfig make_config(std::size_t workers) {
    ServeConfig config;
    config.workers = workers;
    config.now_fn = [this] { return now.load(std::memory_order_relaxed); };
    return config;
  }
};

template <typename E>
bool fails_with(std::future<void>& f) {
  if (f.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
    return false;
  }
  try {
    f.get();
  } catch (const E&) {
    return true;
  } catch (...) {
  }
  return false;
}

TEST(ServeSlaTest, FullQueueShedsLowestFirstThroughFutures) {
  VirtualClockServer vs;
  ModelConfig mc;
  mc.queue_capacity = 2;
  mc.max_batch = 4;           // > capacity: nothing flushes on fill
  mc.max_delay_us = kU64Max;  // nothing flushes on age either
  const ModelHandle handle = vs.server.load("m", make_network(), mc);

  std::vector<Tensor> in;
  for (std::size_t i = 0; i < 6; ++i) {
    in.push_back(make_inputs(1).reshaped({3, 8, 8}));
  }
  std::vector<Tensor> out(6);

  SubmitOptions low;
  low.priority = Priority::kLow;
  SubmitOptions high;
  high.priority = Priority::kHigh;

  auto low_a = vs.server.submit(handle, in[0], out[0], low);
  auto low_b = vs.server.submit(handle, in[1], out[1], low);
  // Queue full of lows: a high incomer evicts the OLDEST low.
  auto high_c = vs.server.submit(handle, in[2], out[2], high);
  EXPECT_TRUE(fails_with<RequestShedError>(low_a));
  EXPECT_EQ(low_b.wait_for(std::chrono::seconds(0)),
            std::future_status::timeout);
  // …and the next high evicts the remaining low — FIFO within the class.
  auto high_d = vs.server.submit(handle, in[3], out[3], high);
  EXPECT_TRUE(fails_with<RequestShedError>(low_b));
  // Queue now holds two highs: a normal incomer cannot displace either…
  EXPECT_THROW(vs.server.submit(handle, in[4], out[4], SubmitOptions{}),
               QueueFullError);
  // …and an equal-priority high is rejected too (no same-class churn).
  EXPECT_THROW(vs.server.submit(handle, in[5], out[5], high), QueueFullError);

  // Drain: shutdown forces the flush; both admitted highs are served.
  vs.server.shutdown();
  EXPECT_NO_THROW(high_c.get());
  EXPECT_NO_THROW(high_d.get());
  EXPECT_EQ(out[2].dim(0), 5u);
  EXPECT_EQ(out[3].dim(0), 5u);
}

TEST(ServeSlaTest, DeadlineExpiresAtDequeueNeverAtAdmission) {
  VirtualClockServer vs;
  ModelConfig mc;
  mc.queue_capacity = 8;
  mc.max_batch = 2;           // the second submit triggers the flush
  mc.max_delay_us = kU64Max;  // age never triggers it
  const ModelHandle handle = vs.server.load("m", make_network(), mc);

  const Tensor sample_a = make_inputs(1).reshaped({3, 8, 8});
  const Tensor sample_b = make_inputs(1).reshaped({3, 8, 8});
  Tensor out_a, out_b;

  SubmitOptions tight;
  tight.deadline_us = 100;
  // Admission accepts the budget unconditionally — a relative deadline
  // cannot be expired at admission.
  std::future<void> reply_a;
  ASSERT_NO_THROW(reply_a = vs.server.submit(handle, sample_a, out_a, tight));

  // The budget expires while queued…
  vs.now += 1'000'000;  // 1 ms ≫ 100 us
  // …and the flush the second submit triggers drops it at dequeue time:
  // it never occupies a batch slot, and its future fails typed.
  std::future<void> reply_b =
      vs.server.submit(handle, sample_b, out_b, SubmitOptions{});
  vs.server.drain();
  try {
    reply_a.get();
    FAIL() << "expired request was served";
  } catch (const DeadlineExceededError& e) {
    EXPECT_NE(std::string(e.what()).find("missed its 100us deadline"),
              std::string::npos);
  }
  EXPECT_NO_THROW(reply_b.get());
  EXPECT_EQ(out_b.dim(0), 5u);

  // Same-instant dequeue is NOT a miss: the deadline bounds queueing
  // time that actually elapsed, and none has.
  Tensor out_c, out_d;
  std::future<void> reply_c = vs.server.submit(handle, sample_a, out_c, tight);
  std::future<void> reply_d =
      vs.server.submit(handle, sample_b, out_d, SubmitOptions{});
  vs.server.drain();
  EXPECT_NO_THROW(reply_c.get());
  EXPECT_NO_THROW(reply_d.get());
  vs.server.shutdown();
}

TEST(ServeSlaTest, MaxDeadlineSaturatesInsteadOfWrapping) {
  VirtualClockServer vs;
  ModelConfig mc;
  mc.queue_capacity = 8;
  mc.max_batch = 2;
  mc.max_delay_us = kU64Max;
  const ModelHandle handle = vs.server.load("m", make_network(), mc);

  const Tensor sample_a = make_inputs(1).reshaped({3, 8, 8});
  const Tensor sample_b = make_inputs(1).reshaped({3, 8, 8});
  Tensor out_a, out_b;
  SubmitOptions forever;
  forever.deadline_us = kU64Max;  // would wrap into the past if scaled
  std::future<void> reply_a =
      vs.server.submit(handle, sample_a, out_a, forever);
  vs.now += 1'000'000'000'000ull;  // ~17 virtual minutes queued
  std::future<void> reply_b =
      vs.server.submit(handle, sample_b, out_b, SubmitOptions{});
  vs.server.drain();
  EXPECT_NO_THROW(reply_a.get());
  EXPECT_NO_THROW(reply_b.get());
  vs.server.shutdown();
}

TEST(ServeSlaTest, DefaultConfigNeverHoldsALoneRequest) {
  // ModelConfig{} is work-conserving: a free worker takes what is
  // queued.  The virtual clock never advances, so any batch-fill hold
  // would park this lone request until shutdown.  The buffers outlive
  // the server, whose shutdown still serves the request if it was held.
  const Tensor sample = make_inputs(1).reshaped({3, 8, 8});
  Tensor out;
  VirtualClockServer vs;
  const ModelHandle handle =
      vs.server.load("lone", make_network(), ModelConfig{});
  std::future<void> reply = vs.server.submit(handle, sample, out);
  ASSERT_EQ(reply.wait_for(std::chrono::seconds(5)),
            std::future_status::ready);
  EXPECT_NO_THROW(reply.get());
  EXPECT_EQ(out.dim(0), 5u);
  vs.server.shutdown();
}

TEST(ServeSlaTest, QueueStageTimesAdmissionToDequeue) {
  // serve.<name>.stage.queue takes one sample per request that joins a
  // batch.  Under an explicit hold A waits 700 us of virtual time for B
  // to fill the batch and B joins at once: exactly 700 000 ns over 2.
  const bool metrics_were_on = telemetry::metrics_enabled();
  telemetry::set_metrics_enabled(true);
  const Tensor sample_a = make_inputs(1).reshaped({3, 8, 8});
  const Tensor sample_b = make_inputs(1).reshaped({3, 8, 8});
  Tensor out_a, out_b;
  VirtualClockServer vs;
  ModelConfig mc;
  mc.max_batch = 2;
  mc.max_delay_us = kU64Max;  // only the second submit flushes
  const ModelHandle handle = vs.server.load("queue-stage", make_network(), mc);
  const int timer = telemetry::find_named_metric(
      telemetry::NamedKind::kTimer, "serve.queue-stage.stage.queue");
  ASSERT_GE(timer, 0);
  const telemetry::TimerStats before = telemetry::named_timer_stats(timer);

  std::future<void> reply_a = vs.server.submit(handle, sample_a, out_a);
  vs.now += 700'000;
  std::future<void> reply_b = vs.server.submit(handle, sample_b, out_b);
  EXPECT_NO_THROW(reply_a.get());
  EXPECT_NO_THROW(reply_b.get());

  const telemetry::TimerStats after = telemetry::named_timer_stats(timer);
  EXPECT_EQ(after.count - before.count, 2u);
  EXPECT_EQ(after.total_ns - before.total_ns, 700'000u);
  vs.server.shutdown();
  telemetry::set_metrics_enabled(metrics_were_on);
}

TEST(ServeSlaTest, WeightMustBePositiveAndFinite) {
  InferenceServer server;
  for (const double weight : {0.0, -1.0, std::nan("")}) {
    ModelConfig mc;
    mc.weight = weight;
    EXPECT_THROW(server.load("bad", make_network(), mc), Error);
  }
  EXPECT_THROW(server.resolve("bad"), ModelNotFoundError);
}

// ---- harness accounting regression (satellite fix) -------------------------

TEST(HarnessAccountingTest, OfferedCountsEveryAttemptClosedLoop) {
  InferenceServer server(ServeConfig{.workers = 2});
  ModelConfig mc;
  mc.max_batch = 4;
  mc.max_delay_us = 50;
  mc.queue_capacity = 2;  // tiny: retries are likely under 4 producers
  server.load("m", make_network(), mc);
  ServeHarness harness(server, "m");
  const Tensor x = make_inputs(32);
  const HarnessReport report = harness.run(x, {.producers = 4});
  // Every sample served, and the books balance: each retry was a fresh
  // offer, so offered = admitted + rejected exactly (the pre-fix code
  // lost the retry burst).
  EXPECT_EQ(report.requests, 32u);
  EXPECT_EQ(report.offered, report.admitted + report.rejected);
  EXPECT_GE(report.admitted, 32u);
  EXPECT_EQ(report.deadline_missed, 0u);
  server.shutdown();
}

TEST(HarnessAccountingTest, OpenLoopOffersEachSampleOnce) {
  InferenceServer server(ServeConfig{.workers = 2});
  ModelConfig mc;
  mc.max_batch = 8;
  mc.max_delay_us = 100;
  mc.queue_capacity = 4;
  server.load("m", make_network(), mc);
  ServeHarness harness(server, "m");
  const Tensor x = make_inputs(64);
  HarnessOptions options;
  options.producers = 2;
  options.offered_rps = 200'000.0;  // far beyond a 4-deep queue
  const HarnessReport report = harness.run(x, options);
  // The open loop never retries: one offer per sample, shed or served.
  EXPECT_EQ(report.offered, 64u);
  EXPECT_EQ(report.offered, report.admitted + report.rejected);
  EXPECT_EQ(report.requests + report.rejected + report.shed +
                report.deadline_missed,
            64u);
  server.shutdown();
}

TEST(HarnessAccountingTest, MixedPrioritiesReachTheServerPerSample) {
  VirtualClockServer vs;
  ModelConfig mc;
  mc.queue_capacity = 2;
  mc.max_batch = 4;
  mc.max_delay_us = kU64Max;
  const ModelHandle handle = vs.server.load("m", make_network(), mc);
  // Two lows queued through the submit path, then the harness offers a
  // single high-priority sample closed-loop: it must displace a low
  // (captured by the typed shed future), proving the per-sample
  // priority option reaches admission.
  const Tensor lows = make_inputs(2);
  Tensor in_a = make_inputs(1).reshaped({3, 8, 8});
  Tensor in_b = make_inputs(1).reshaped({3, 8, 8});
  Tensor out_a, out_b;
  SubmitOptions low;
  low.priority = Priority::kLow;
  auto low_a = vs.server.submit(handle, in_a, out_a, low);
  auto low_b = vs.server.submit(handle, in_b, out_b, low);

  ServeHarness harness(vs.server, "m");
  HarnessOptions options;
  options.priorities = {Priority::kHigh};
  HarnessReport report;
  std::thread driver(
      [&] { report = harness.run(make_inputs(1), options); });
  // The eviction happens synchronously inside the harness's submit.
  while (!fails_with<RequestShedError>(low_a)) {
    std::this_thread::yield();
  }
  vs.server.shutdown();  // force the flush; the high and low_b serve
  driver.join();
  EXPECT_EQ(report.requests, 1u);
  EXPECT_EQ(report.offered, report.admitted + report.rejected);
  EXPECT_NO_THROW(low_b.get());
}

}  // namespace
}  // namespace ccq::serve
