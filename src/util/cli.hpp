// Minimal command-line parsing for the dlsched CLI and the examples:
// positional arguments plus --key value / --flag options.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace dlsched {

class CliArgs {
 public:
  /// Parses argv; everything starting with "--" is an option, the token
  /// after a non-flag option is its value.  Options registered in `flags`
  /// take no value.
  static CliArgs parse(int argc, const char* const* argv,
                       const std::vector<std::string>& flags = {});

  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }
  [[nodiscard]] bool has(const std::string& option) const;
  [[nodiscard]] std::optional<std::string> get(const std::string& option) const;
  [[nodiscard]] std::string get_or(const std::string& option,
                                   std::string fallback) const;
  /// Numeric accessors; throw dlsched::Error on malformed values.
  [[nodiscard]] double get_double(const std::string& option,
                                  double fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& option,
                                     std::int64_t fallback) const;
  /// A count or size: a non-negative integer.  Throws dlsched::Error
  /// naming the option when the value is negative or malformed.
  [[nodiscard]] std::size_t get_count(const std::string& option,
                                      std::size_t fallback) const;

  /// Throws dlsched::Error naming the first option not in `known`.
  void reject_unknown(const std::vector<std::string>& known) const;

 private:
  std::vector<std::string> positional_;
  std::map<std::string, std::string> options_;
};

}  // namespace dlsched
