#pragma once
// Minimal CLI + environment option handling shared by benches and examples.
//
// Conventions: `--name=value` always works; `--name value` works for
// numeric values only (a non-numeric token after `--name` keeps `--name` a
// bare flag and the token positional). An
// environment variable CT_<NAME> (upper-cased, dashes to underscores)
// provides a default that the command line overrides. This lets the single
// command `for b in build/bench/*; do $b; done` run everything at a reduced
// default scale while CT_PROCS / CT_REPS restore paper scale globally.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace ct::support {

class Options {
 public:
  Options() = default;
  /// Parses argv; throws std::invalid_argument for malformed input.
  Options(int argc, char** argv);

  /// Value lookup order: command line, then CT_<NAME> env, then fallback.
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  double get_double(const std::string& name, double fallback) const;
  std::string get_string(const std::string& name, const std::string& fallback) const;
  /// A flag is set by `--name` (no value), `--name=true/1`, or env =1/true.
  bool get_flag(const std::string& name) const;

  bool has(const std::string& name) const;

  /// The options given on the command line (or set()), by name.
  const std::map<std::string, std::string>& given() const noexcept { return values_; }

  /// Positional (non-option) arguments in order of appearance.
  const std::vector<std::string>& positional() const noexcept { return positional_; }

  /// For tests: inject a value as if given on the command line.
  void set(const std::string& name, const std::string& value);

 private:
  std::optional<std::string> lookup(const std::string& name) const;

  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

/// Env var name for an option: "procs" -> "CT_PROCS".
std::string env_name_for(const std::string& option);

}  // namespace ct::support
