// Shared pieces of the ccq benchmark harness: run options, the clock,
// the in-memory span log the traced runs fill, the two phases every
// workload runs (quantize with CCQ, then serve the result over TCP) and
// the workload entry points.  The harness only calls the public ccq
// headers; run.py turns the raw JSON it writes into metrics.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ccq/common/json.hpp"
#include "ccq/data/dataset.hpp"
#include "ccq/models/model.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;  ///< length of the measured interval
  bool trace = false;     ///< traced run: telemetry on, spans recorded
  std::string tmp_dir;    ///< fresh per run; artifacts are written here
};

/// Monotonic nanoseconds since the harness started.
std::uint64_t now_ns();

inline double seconds_between(std::uint64_t start_ns, std::uint64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

/// Spans around calls into the public ccq API: name, start, end, the
/// enclosing span and the request they serve.  Storage is reserved up
/// front and spans stay in memory until `to_json` at the end of the run.
/// One log per recording thread; no locking.
class SpanLog {
 public:
  explicit SpanLog(std::size_t capacity) { spans_.reserve(capacity); }

  /// Record a finished span; returns its index.
  std::int64_t add(const char* name, std::uint64_t start_ns,
                   std::uint64_t end_ns, std::int64_t parent = -1,
                   std::uint64_t request = 0);
  /// Start a span whose end is not known yet (children may name it as
  /// their parent before it closes).
  std::int64_t open(const char* name, std::int64_t parent = -1,
                    std::uint64_t request = 0);
  void close(std::int64_t index);

  /// Append this log's spans to `out`, an array of
  /// [name, start_ns, end_ns, parent, request] rows; parent indices are
  /// shifted past the rows already in `out`.
  void append_to(ccq::Json& out) const;

 private:
  struct Span {
    const char* name;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    std::int64_t parent;
    std::uint64_t request;
  };
  std::vector<Span> spans_;
};

// ---- the quantize phase (quantize.cpp) --------------------------------------

/// One CCQ experiment: synthetic data and a pretrained model.
struct Experiment {
  ccq::data::Dataset train;
  ccq::data::Dataset val;
  ccq::models::QuantModel model;
};

/// Set-up: dataset synthesis, model build and pretraining with the
/// `ccq run --arch simplecnn` defaults.  The inputs are fixed; every call
/// builds the same experiment.
std::unique_ptr<Experiment> set_up_experiment();

/// `CcqController::init()` plus every `step()` until `done()`, with at
/// most `max_steps` steps (-1: until every layer sleeps).  Leaves the
/// model at its final precision.  With a span log, the calls and observer
/// events are recorded as spans.  Returns quantize_s, top1_pct,
/// compression_x, final_bits and steps.
ccq::Json quantize(Experiment& experiment, int max_steps, SpanLog* spans);

// ---- the serving phase (serve.cpp) -------------------------------------------

/// Export the experiment's model to a packed artifact in the run's temp
/// dir, load it back and serve it from a `TcpServer` on 127.0.0.1 to two
/// blocking `TcpClient`s for `seconds` (a traced run measures half of it
/// untraced and half traced, then times single layers).  `setups` timed
/// server set-ups come first.  The seed drives the request pool.  Every
/// reply is compared bit for bit with `forward_reference`.
ccq::Json serve(Experiment& experiment, const Options& options, int setups,
                double seconds);

// ---- workloads (workloads.cpp) ------------------------------------------------

/// Each workload fills `out` with its raw measurements (see run.py for
/// the schema it reads).  They throw on set-up failures; operation
/// failures are counted in the output instead.
void run_quantize(const Options& options, ccq::Json& out);
void run_serve_tcp(const Options& options, ccq::Json& out);

/// JSON array of numbers.
template <typename T>
ccq::Json json_array(const std::vector<T>& values) {
  ccq::Json array = ccq::Json::array();
  for (const T& v : values) array.push_back(static_cast<double>(v));
  return array;
}

}  // namespace perfbench
