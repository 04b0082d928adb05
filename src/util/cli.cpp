#include "util/cli.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/string_util.hpp"

namespace dlsched {

CliArgs CliArgs::parse(int argc, const char* const* argv,
                       const std::vector<std::string>& flags) {
  CliArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string token = argv[i];
    if (!starts_with(token, "--")) {
      args.positional_.push_back(token);
      continue;
    }
    const std::string name = token.substr(2);
    DLSCHED_EXPECT(!name.empty(), "empty option name '--'");
    const std::size_t eq = name.find('=');
    if (eq != std::string::npos) {
      args.options_[name.substr(0, eq)] = name.substr(eq + 1);
      continue;
    }
    if (std::find(flags.begin(), flags.end(), name) != flags.end()) {
      args.options_[name] = "";
      continue;
    }
    DLSCHED_EXPECT(i + 1 < argc, "option --" + name + " needs a value");
    args.options_[name] = argv[++i];
  }
  return args;
}

bool CliArgs::has(const std::string& option) const {
  return options_.count(option) > 0;
}

std::optional<std::string> CliArgs::get(const std::string& option) const {
  const auto it = options_.find(option);
  if (it == options_.end()) return std::nullopt;
  return it->second;
}

std::string CliArgs::get_or(const std::string& option,
                            std::string fallback) const {
  const auto it = options_.find(option);
  return it == options_.end() ? std::move(fallback) : it->second;
}

double CliArgs::get_double(const std::string& option, double fallback) const {
  const auto value = get(option);
  if (!value.has_value()) return fallback;
  try {
    std::size_t consumed = 0;
    const double parsed = std::stod(*value, &consumed);
    DLSCHED_EXPECT(consumed == value->size(), "trailing characters");
    return parsed;
  } catch (const std::exception&) {
    DLSCHED_FAIL("option --" + option + ": '" + *value + "' is not a number");
  }
}

std::int64_t CliArgs::get_int(const std::string& option,
                              std::int64_t fallback) const {
  const auto value = get(option);
  if (!value.has_value()) return fallback;
  try {
    std::size_t consumed = 0;
    const std::int64_t parsed = std::stoll(*value, &consumed);
    DLSCHED_EXPECT(consumed == value->size(), "trailing characters");
    return parsed;
  } catch (const std::exception&) {
    DLSCHED_FAIL("option --" + option + ": '" + *value +
                 "' is not an integer");
  }
}

void CliArgs::reject_unknown(const std::vector<std::string>& known) const {
  for (const auto& option : options_) {
    DLSCHED_EXPECT(
        std::find(known.begin(), known.end(), option.first) != known.end(),
        "unknown option --" + option.first);
  }
}

}  // namespace dlsched
