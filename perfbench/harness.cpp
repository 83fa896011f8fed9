// Entry point of the benchmark harness:
//
//   ccq_perfbench --workload quantize|serve-tcp --seed N
//                 --seconds S --trace 0|1 --tmp DIR --out raw.json
//
// Runs one workload and writes its raw measurements to --out.  run.py
// builds this binary, runs it, checks the outputs and prints metrics.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <string>

#include "ccq/common/logging.hpp"
#include "harness.hpp"

namespace perfbench {

std::uint64_t now_ns() {
  static const auto origin = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - origin)
          .count());
}

std::int64_t SpanLog::add(const char* name, std::uint64_t start_ns,
                          std::uint64_t end_ns, std::int64_t parent,
                          std::uint64_t request) {
  spans_.push_back({name, start_ns, end_ns, parent, request});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::int64_t SpanLog::open(const char* name, std::int64_t parent,
                           std::uint64_t request) {
  return add(name, now_ns(), 0, parent, request);
}

void SpanLog::close(std::int64_t index) {
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
}

void SpanLog::append_to(ccq::Json& out) const {
  const auto offset = static_cast<std::int64_t>(out.size());
  for (const Span& s : spans_) {
    ccq::Json row = ccq::Json::array();
    row.push_back(s.name);
    row.push_back(static_cast<double>(s.start_ns));
    row.push_back(static_cast<double>(s.end_ns));
    row.push_back(static_cast<double>(s.parent < 0 ? -1 : s.parent + offset));
    row.push_back(static_cast<double>(s.request));
    out.push_back(std::move(row));
  }
}

}  // namespace perfbench

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  const auto arg = [&](const std::string& key) {
    const auto it = args.find(key);
    if (it == args.end()) {
      std::cerr << "ccq_perfbench: missing " << key << "\n";
      std::exit(2);
    }
    return it->second;
  };

  perfbench::Options options;
  options.workload = arg("--workload");
  options.trace = arg("--trace") == "1";
  options.tmp_dir = arg("--tmp");
  const std::string out_path = arg("--out");

  ccq::set_log_level(ccq::LogLevel::kWarn);
  perfbench::now_ns();  // pin the clock origin

  ccq::Json out = ccq::Json::object();
  try {
    options.seed = std::stoull(arg("--seed"));
    options.seconds = std::stod(arg("--seconds"));
    out.set("workload", options.workload);
    out.set("seed", static_cast<double>(options.seed));
    out.set("trace", options.trace);
    if (options.workload == "quantize") {
      perfbench::run_quantize(options, out);
    } else if (options.workload == "serve-tcp") {
      perfbench::run_serve_tcp(options, out);
    } else {
      std::cerr << "ccq_perfbench: unknown workload " << options.workload
                << "\n";
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "ccq_perfbench: " << e.what() << "\n";
    return 1;
  }
  if (!out.save(out_path, -1)) {
    std::cerr << "ccq_perfbench: cannot write " << out_path << "\n";
    return 1;
  }
  return 0;
}
