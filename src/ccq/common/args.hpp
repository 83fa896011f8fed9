// Minimal command-line argument parser for the ccq tools.
//
// Grammar: `tool <command> [--key value]... [--flag]...`.  Unknown keys
// are collected and can be rejected by the caller; typed getters fall
// back to defaults and reject a value they cannot represent exactly,
// naming the flag.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace ccq {

class Args {
 public:
  /// Parse argv (argv[0] skipped).  The first non-flag token becomes the
  /// command; `--key value` pairs and bare `--flag`s follow.
  Args(int argc, const char* const* argv);

  const std::string& command() const { return command_; }

  bool has(const std::string& key) const;
  std::string get(const std::string& key, const std::string& fallback) const;
  /// Throws when the value is not an integer or lies outside `int`.
  int get_int(const std::string& key, int fallback) const;
  /// A count, size or duration: `get_int`, and also throws on a negative
  /// value, so it never wraps to a huge unsigned one.
  std::size_t get_size(const std::string& key, std::size_t fallback) const;
  double get_double(const std::string& key, double fallback) const;
  bool get_flag(const std::string& key) const { return has(key); }

  /// Comma-separated integer list, e.g. --ladder 8,4,2; each entry as
  /// `get_int` reads it.
  std::vector<int> get_int_list(const std::string& key,
                                std::vector<int> fallback) const;

  /// Keys that were provided but never queried (typo detection).
  std::vector<std::string> unused() const;
  /// Throws a ccq::Error naming the command and every key in `unused()`,
  /// if there is one.
  void reject_unused() const;

 private:
  std::string command_;
  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> queried_;
};

}  // namespace ccq
