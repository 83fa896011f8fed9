#include "ccq/common/args.hpp"

#include <cerrno>
#include <climits>
#include <cstdlib>
#include <sstream>

#include "ccq/common/error.hpp"

namespace ccq {

namespace {

/// Parse one whole token as an `int`.  strtol's `long` is checked
/// against `int` (and its own ERANGE) rather than narrowed, so
/// 4294967296 is an error, not 0.
int parse_int(const std::string& key, const std::string& text,
              const char* expects) {
  char* end = nullptr;
  errno = 0;
  const long parsed = std::strtol(text.c_str(), &end, 10);
  CCQ_CHECK(end != text.c_str() && *end == '\0',
            "--" + key + " expects " + expects + ", got: " + text);
  CCQ_CHECK(errno != ERANGE && parsed >= INT_MIN && parsed <= INT_MAX,
            "--" + key + " value " + text + " is out of range [" +
                std::to_string(INT_MIN) + ", " + std::to_string(INT_MAX) +
                "]");
  return static_cast<int>(parsed);
}

}  // namespace

Args::Args(int argc, const char* const* argv) {
  int i = 1;
  if (i < argc && argv[i][0] != '-') {
    command_ = argv[i];
    ++i;
  }
  for (; i < argc; ++i) {
    std::string token = argv[i];
    CCQ_CHECK(token.rfind("--", 0) == 0, "expected --key, got: " + token);
    const std::string key = token.substr(2);
    CCQ_CHECK(!key.empty(), "empty flag name");
    if (i + 1 < argc && argv[i + 1][0] != '-') {
      values_[key] = argv[i + 1];
      ++i;
    } else {
      values_[key] = "";  // bare flag
    }
  }
}

bool Args::has(const std::string& key) const {
  queried_[key] = true;
  return values_.count(key) != 0;
}

std::string Args::get(const std::string& key,
                      const std::string& fallback) const {
  queried_[key] = true;
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

int Args::get_int(const std::string& key, int fallback) const {
  const std::string v = get(key, "");
  if (v.empty()) return fallback;
  return parse_int(key, v, "an integer");
}

std::size_t Args::get_size(const std::string& key,
                           std::size_t fallback) const {
  const std::string v = get(key, "");
  if (v.empty()) return fallback;
  const int parsed = parse_int(key, v, "a non-negative integer");
  CCQ_CHECK(parsed >= 0,
            "--" + key + " expects a non-negative integer, got: " + v);
  return static_cast<std::size_t>(parsed);
}

double Args::get_double(const std::string& key, double fallback) const {
  const std::string v = get(key, "");
  if (v.empty()) return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(v.c_str(), &end);
  CCQ_CHECK(end != v.c_str() && *end == '\0',
            "--" + key + " expects a number, got: " + v);
  return parsed;
}

std::vector<int> Args::get_int_list(const std::string& key,
                                    std::vector<int> fallback) const {
  const std::string v = get(key, "");
  if (v.empty()) return fallback;
  std::vector<int> out;
  std::stringstream ss(v);
  std::string part;
  while (std::getline(ss, part, ',')) {
    out.push_back(parse_int(key, part, "integers"));
  }
  CCQ_CHECK(!out.empty(), "--" + key + " list is empty");
  return out;
}

std::vector<std::string> Args::unused() const {
  std::vector<std::string> out;
  for (const auto& [key, value] : values_) {
    (void)value;
    if (!queried_.count(key)) out.push_back(key);
  }
  return out;
}

void Args::reject_unused() const {
  std::string keys;
  for (const std::string& key : unused()) {
    keys += (keys.empty() ? "--" : ", --") + key;
  }
  CCQ_CHECK(keys.empty(), command_ + " does not take " + keys);
}

}  // namespace ccq
