#include "ccq/serve/harness.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>

#include "ccq/common/telemetry.hpp"
#include "ccq/serve/net.hpp"

namespace ccq::serve {

namespace {

using Clock = std::chrono::steady_clock;

/// Split an NCHW batch into per-sample CHW tensors (inputs must outlive
/// their replies, so the split happens up front).
std::vector<Tensor> split_samples(const Tensor& samples) {
  const std::size_t n = samples.dim(0);
  const Shape chw{samples.dim(1), samples.dim(2), samples.dim(3)};
  const std::size_t sample_floats = shape_numel(chw);
  std::vector<Tensor> inputs;
  inputs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Tensor sample(chw);
    const auto src = samples.data().subspan(i * sample_floats, sample_floats);
    std::copy(src.begin(), src.end(), sample.data().begin());
    inputs.push_back(std::move(sample));
  }
  return inputs;
}

/// Fire the scripted swap exactly once, after `swap_after` admissions.
struct SwapTrigger {
  const HarnessOptions& options;
  std::atomic<std::size_t> admitted{0};
  std::atomic<bool> fired{false};

  void on_admit() {
    if (options.swap_after == 0 || !options.on_swap) return;
    if (admitted.fetch_add(1, std::memory_order_relaxed) + 1 <
        options.swap_after) {
      return;
    }
    if (!fired.exchange(true)) options.on_swap();
  }
};

}  // namespace

std::uint64_t HarnessReport::latency_quantile_ns(double q) const {
  if (latency_ns.empty()) return 0;
  std::vector<std::uint64_t> sorted = latency_ns;
  std::sort(sorted.begin(), sorted.end());
  const double rank = q * static_cast<double>(sorted.size());
  std::size_t index =
      rank <= 1.0 ? 0 : static_cast<std::size_t>(std::ceil(rank)) - 1;
  index = std::min(index, sorted.size() - 1);
  return sorted[index];
}

ServeHarness::ServeHarness(InferenceServer& server, std::string model)
    : server_(&server), model_(std::move(model)) {}

ServeHarness::ServeHarness(std::string host, std::uint16_t port,
                           std::string model)
    : host_(std::move(host)), port_(port), model_(std::move(model)) {}

HarnessReport ServeHarness::run(const Tensor& samples,
                                const HarnessOptions& options) {
  CCQ_CHECK(samples.rank() == 4, "harness expects an NCHW sample batch");
  CCQ_CHECK(options.producers >= 1, "harness needs at least one producer");
  const bool tcp = server_ == nullptr;
  const bool open_loop = options.offered_rps > 0.0;
  CCQ_CHECK(!(tcp && open_loop),
            "the open loop is in-process only (TCP clients are blocking, "
            "one request in flight per connection)");

  const std::vector<Tensor> inputs = split_samples(samples);
  const std::size_t n = inputs.size();
  const std::size_t producers = options.producers;

  CCQ_CHECK(options.priorities.empty() || options.priorities.size() == n,
            "per-sample priorities must match the sample count (" +
                std::to_string(options.priorities.size()) + " vs " +
                std::to_string(n) + ")");
  const auto priority_of = [&](std::size_t i) {
    return options.priorities.empty() ? options.priority
                                      : options.priorities[i];
  };

  HarnessReport report;
  report.outputs.resize(n);
  report.versions.assign(n, 0);
  std::vector<std::uint64_t> latencies(n, 0);
  std::vector<char> answered(n, 0);
  std::atomic<std::size_t> offered{0};
  std::atomic<std::size_t> admitted{0};
  std::atomic<std::size_t> rejected{0};
  std::atomic<std::size_t> shed{0};
  std::atomic<std::size_t> deadline_missed{0};
  SwapTrigger swap{options};
  // First producer failure, rethrown after the join (an exception
  // escaping a thread would terminate the process instead).
  std::mutex error_mutex;
  std::exception_ptr first_error;
  const auto capture_error = [&](std::exception_ptr error) {
    std::lock_guard<std::mutex> lock(error_mutex);
    if (!first_error) first_error = error;
  };

  // Open-loop pacing: request i is *offered* at start + i/rps across the
  // whole fleet of producers, whether or not earlier replies arrived.
  const auto offer_interval =
      open_loop ? std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(1.0 / options.offered_rps))
                : Clock::duration::zero();

  const auto start = Clock::now();

  const auto produce = [&](std::size_t p) {
    if (tcp) {
      TcpClient client(host_, port_);
      for (std::size_t i = p; i < n; i += producers) {
        wire::InferRequest request;
        request.model = model_;
        request.channels = inputs[i].dim(0);
        request.height = inputs[i].dim(1);
        request.width = inputs[i].dim(2);
        request.data.assign(inputs[i].data().begin(), inputs[i].data().end());
        if (priority_of(i) != Priority::kNormal) {
          request.has_priority = true;
          request.priority = static_cast<std::uint8_t>(priority_of(i));
        }
        if (options.deadline_us > 0) {
          request.has_deadline = true;
          request.deadline_us = options.deadline_us;
        }
        for (;;) {
          offered.fetch_add(1, std::memory_order_relaxed);
          const auto sent = Clock::now();
          const wire::InferReply reply = client.infer(request);
          if (reply.ok) {
            admitted.fetch_add(1, std::memory_order_relaxed);
            latencies[i] = static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now() - sent)
                    .count());
            report.outputs[i] = Tensor::adopt(
                {reply.logits.size()},
                FloatVec(reply.logits.begin(), reply.logits.end()));
            report.versions[i] = reply.version;
            answered[i] = 1;
            swap.on_admit();
            break;
          }
          // Typed errors flattened to strings by the wire: a full queue
          // or a priority eviction is retryable, an expired deadline is
          // final (the budget was consumed queueing), anything else is
          // a real failure.
          if (reply.error.find("full (capacity") != std::string::npos) {
            rejected.fetch_add(1, std::memory_order_relaxed);
          } else if (reply.error.find("shed to admit") != std::string::npos) {
            admitted.fetch_add(1, std::memory_order_relaxed);
            shed.fetch_add(1, std::memory_order_relaxed);
          } else if (reply.error.find("missed its") != std::string::npos) {
            admitted.fetch_add(1, std::memory_order_relaxed);
            deadline_missed.fetch_add(1, std::memory_order_relaxed);
            break;
          } else {
            throw Error("tcp serve request failed: " + reply.error);
          }
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
      }
      return;
    }
    // In-process: resolve a fresh handle per submission so a mid-run
    // hot-swap routes later submissions to the new current version.
    std::vector<std::pair<std::size_t, std::future<void>>> pending;
    SubmitOptions submit_options;
    submit_options.deadline_us = options.deadline_us;
    for (std::size_t i = p; i < n; i += producers) {
      if (open_loop) {
        std::this_thread::sleep_until(start +
                                      offer_interval * static_cast<long>(i));
      }
      submit_options.priority = priority_of(i);
      for (;;) {
        const ModelHandle handle = server_->resolve(model_);
        try {
          const auto sent = Clock::now();
          std::future<void> reply = server_->submit(
              handle, inputs[i], report.outputs[i], submit_options);
          offered.fetch_add(1, std::memory_order_relaxed);
          admitted.fetch_add(1, std::memory_order_relaxed);
          report.versions[i] = handle.version();
          swap.on_admit();
          if (open_loop) {
            pending.emplace_back(i, std::move(reply));
          } else {
            reply.get();
            latencies[i] = static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now() - sent)
                    .count());
            answered[i] = 1;
          }
          break;
        } catch (const QueueFullError&) {
          offered.fetch_add(1, std::memory_order_relaxed);
          rejected.fetch_add(1, std::memory_order_relaxed);
          if (open_loop) break;  // shed: offered load is offered, not owed
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        } catch (const RequestShedError&) {
          // Admitted, then evicted for higher-priority traffic while we
          // waited on the reply (closed loop only — the open loop parks
          // its futures in `pending`).  Retry: a fresh offer.
          shed.fetch_add(1, std::memory_order_relaxed);
          report.versions[i] = 0;
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        } catch (const DeadlineExceededError&) {
          // Admitted, then expired queueing.  No retry — the budget the
          // caller set was consumed; the sample stays unanswered.
          deadline_missed.fetch_add(1, std::memory_order_relaxed);
          report.versions[i] = 0;
          break;
        } catch (const ModelRetiredError&) {
          // Raced an unload/swap between resolve and submit: the next
          // resolve finds the current version.
        }
      }
    }
    for (auto& [i, reply] : pending) {
      try {
        reply.get();
        answered[i] = 1;
      } catch (const RequestShedError&) {
        shed.fetch_add(1, std::memory_order_relaxed);
        report.versions[i] = 0;
      } catch (const DeadlineExceededError&) {
        deadline_missed.fetch_add(1, std::memory_order_relaxed);
        report.versions[i] = 0;
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(producers);
  for (std::size_t p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      try {
        produce(p);
      } catch (...) {
        capture_error(std::current_exception());
      }
    });
  }
  for (auto& thread : threads) thread.join();
  if (first_error) std::rethrow_exception(first_error);
  report.wall_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  report.offered = offered.load(std::memory_order_relaxed);
  report.admitted = admitted.load(std::memory_order_relaxed);
  report.rejected = rejected.load(std::memory_order_relaxed);
  report.shed = shed.load(std::memory_order_relaxed);
  report.deadline_missed = deadline_missed.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < n; ++i) {
    if (!answered[i]) continue;
    ++report.requests;
    if (!open_loop) report.latency_ns.push_back(latencies[i]);
  }
  return report;
}

}  // namespace ccq::serve
