// Minimal --flag value parser shared by simpush_cli and simpush_serve.
// Flags come as "--name value" pairs and may repeat: GetAll returns
// every value in order, and the last value wins for the scalar getters.
// Every argument must fit that shape: a word in flag position that does
// not start with "--", or a last flag with no value, is an error naming
// it (exit status 2), so no flag is silently dropped.
//
// Numeric flags are strict. An integer flag is an unsigned decimal
// number with no sign, suffix or surrounding text, no larger than the
// flag's maximum, so `--cache-bytes -1` or `--cache-bytes 64MiB` is an
// error naming the flag (exit status 2), not SIZE_MAX or 64 bytes. A
// double flag is one whole strtod number, so `--epsilon 0.05x` or
// `--epsilon ""` exits 2 the same way instead of running at 0.05 or at
// the default.

#ifndef SIMPUSH_TOOLS_ARGS_H_
#define SIMPUSH_TOOLS_ARGS_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace simpush {

/// Parses `text` as an unsigned decimal number no larger than `max`.
/// Digits only: a sign, whitespace, a suffix or an empty string fails.
inline bool ParseUnsignedDecimal(const std::string& text, uint64_t max,
                                 uint64_t* value) {
  if (text.empty()) return false;
  uint64_t parsed = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    if (parsed > (max - digit) / 10) return false;
    parsed = parsed * 10 + digit;
  }
  *value = parsed;
  return true;
}

class Args {
 public:
  /// Reads the pairs in argv[first..argc). An argument that does not
  /// fit a pair prints an error naming it and exits with status 2.
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; i += 2) {
      if (std::strncmp(argv[i], "--", 2) != 0) {
        std::fprintf(stderr, "unexpected argument \"%s\": need --flag value\n",
                     argv[i]);
        std::exit(2);
      }
      if (i + 1 == argc) {
        std::fprintf(stderr, "flag %s has no value\n", argv[i]);
        std::exit(2);
      }
      values_.emplace_back(argv[i] + 2, argv[i + 1]);
    }
  }

  bool Has(const std::string& key) const { return Find(key) != nullptr; }

  std::string Get(const std::string& key, const std::string& fallback) const {
    const std::string* value = Find(key);
    return value == nullptr ? fallback : *value;
  }

  std::vector<std::string> GetAll(const std::string& key) const {
    std::vector<std::string> all;
    for (const auto& [k, v] : values_) {
      if (k == key) all.push_back(v);
    }
    return all;
  }

  /// The flag as a number in strtod's syntax, or `fallback` when it is
  /// absent. An empty value or trailing text prints an error naming the
  /// flag and exits with status 2; range checks are the caller's.
  double GetDouble(const std::string& key, double fallback) const {
    const std::string* value = Find(key);
    if (value == nullptr) return fallback;
    char* end = nullptr;
    const double parsed = std::strtod(value->c_str(), &end);
    if (value->empty() || *end != '\0') {
      std::fprintf(stderr, "bad --%s \"%s\": need a number\n", key.c_str(),
                   value->c_str());
      std::exit(2);
    }
    return parsed;
  }

  /// The flag as an unsigned decimal no larger than `max`, or
  /// `fallback` when it is absent. Any other value prints an error
  /// naming the flag and exits with status 2.
  uint64_t GetInt(const std::string& key, uint64_t fallback,
                  uint64_t max = std::numeric_limits<uint64_t>::max()) const {
    const std::string* value = Find(key);
    if (value == nullptr) return fallback;
    uint64_t parsed = 0;
    if (!ParseUnsignedDecimal(*value, max, &parsed)) {
      std::fprintf(stderr, "bad --%s \"%s\": need an unsigned decimal integer",
                   key.c_str(), value->c_str());
      if (max < std::numeric_limits<uint64_t>::max()) {
        std::fprintf(stderr, " <= %llu",
                     static_cast<unsigned long long>(max));
      }
      std::fprintf(stderr, "\n");
      std::exit(2);
    }
    return parsed;
  }

 private:
  const std::string* Find(const std::string& key) const {
    const std::string* found = nullptr;
    for (const auto& [k, v] : values_) {
      if (k == key) found = &v;
    }
    return found;
  }

  std::vector<std::pair<std::string, std::string>> values_;
};

}  // namespace simpush

#endif  // SIMPUSH_TOOLS_ARGS_H_
