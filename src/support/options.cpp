#include "support/options.hpp"

#include <cctype>
#include <cstddef>
#include <cstdlib>
#include <stdexcept>

namespace ct::support {

namespace {

bool is_truthy(const std::string& value) {
  return value.empty() || value == "1" || value == "true" || value == "yes" ||
         value == "on";
}

/// `parse` (std::stoll or std::stod) applied to all of option `name`'s
/// value. Every way it can fail — not a number, out of range, trailing
/// text — throws std::invalid_argument naming the option and the value.
template <class Parse>
auto parse_whole(const std::string& name, const std::string& value, const char* expects,
                 Parse parse) {
  try {
    std::size_t pos = 0;
    const auto parsed = parse(value, &pos);
    if (pos == value.size()) return parsed;
  } catch (const std::invalid_argument&) {
  } catch (const std::out_of_range&) {
  }
  throw std::invalid_argument("option --" + name + " expects " + expects + ", got '" +
                              value + "'");
}

}  // namespace

std::string env_name_for(const std::string& option) {
  std::string env = "CT_";
  for (char ch : option) {
    env += (ch == '-') ? '_' : static_cast<char>(std::toupper(static_cast<unsigned char>(ch)));
  }
  return env;
}

Options::Options(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    if (arg.empty()) throw std::invalid_argument("bare '--' is not a valid option");
    if (auto eq = arg.find('='); eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      continue;
    }
    // Space-separated values are accepted for numeric arguments only
    // ("--reps 100"); string values must use the '=' form ("--tree=lame:2")
    // so that bare flags followed by positional arguments stay unambiguous.
    const bool next_is_numeric = [&] {
      if (i + 1 >= argc) return false;
      const std::string next = argv[i + 1];
      if (next.empty()) return false;
      std::size_t start = (next[0] == '-' || next[0] == '+') ? 1 : 0;
      if (start == next.size()) return false;
      for (std::size_t pos = start; pos < next.size(); ++pos) {
        if (!std::isdigit(static_cast<unsigned char>(next[pos])) && next[pos] != '.') {
          return false;
        }
      }
      return true;
    }();
    if (next_is_numeric) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "";  // flag form
    }
  }
}

std::optional<std::string> Options::lookup(const std::string& name) const {
  if (auto it = values_.find(name); it != values_.end()) return it->second;
  if (const char* env = std::getenv(env_name_for(name).c_str())) {
    return std::string(env);
  }
  return std::nullopt;
}

bool Options::has(const std::string& name) const { return lookup(name).has_value(); }

std::int64_t Options::get_int(const std::string& name, std::int64_t fallback) const {
  auto value = lookup(name);
  if (!value) return fallback;
  return parse_whole(name, *value, "an integer", [](const std::string& text, std::size_t* pos) {
    return static_cast<std::int64_t>(std::stoll(text, pos));
  });
}

double Options::get_double(const std::string& name, double fallback) const {
  auto value = lookup(name);
  if (!value) return fallback;
  return parse_whole(name, *value, "a number", [](const std::string& text, std::size_t* pos) {
    return std::stod(text, pos);
  });
}

std::string Options::get_string(const std::string& name,
                                const std::string& fallback) const {
  return lookup(name).value_or(fallback);
}

bool Options::get_flag(const std::string& name) const {
  auto value = lookup(name);
  return value && is_truthy(*value);
}

void Options::set(const std::string& name, const std::string& value) {
  values_[name] = value;
}

}  // namespace ct::support
