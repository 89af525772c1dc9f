// ct_bench — end-to-end benchmark of corrected-tree broadcast with per-layer
// attribution (README.md in this directory).
//
//   ct_bench --seed N [--workload NAME]... [--seconds S] [--out FILE] [--trace FILE]
//   ct_bench --list --seed N
//   ct_bench --smoke [--trace FILE]
//
// Every workload phase runs in its own forked child, forked while this
// process has no threads: rt-udp may fork again safely, and rusage and peak
// RSS belong to that workload alone. The child reports over a pipe.
// Without --trace one untraced phase runs per workload. With --trace a
// traced phase follows: the protocol wrapper and spans are on, its spans go
// to FILE with the workload name inserted before the extension, and it adds
// the metrics only it measures. End-to-end numbers always come from the
// untraced phase. Exit status: 0 ok, 1 correctness gate failed, 2 usage.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "probe.hpp"

namespace {

using namespace ctbench;

/// Layer counters that read 0 on workloads that never exercise the layer.
constexpr const char* kZeroWhenUnused[] = {
    "topology.survivor_rebuilds",     "rt.chaos.crashed_per_bcast",
    "rt.chaos.dropped_per_bcast",     "rt.chaos.degraded_epochs",
    "rt.membership.repairs",          "rt.membership.rejoins",
    "rt.membership.replayed_epochs",  "rt.membership.state_transfers",
    "rt.membership.epochs_to_converge", "rt.transport.retransmits_per_bcast",
    "rt.transport.dup_drops_per_bcast", "rt.transport.useful_retx_ratio",
};

constexpr const char* kSpanLayers[] = {"bench", "topology", "experiment",
                                       "protocol", "sim", "rt"};

int usage() {
  std::fprintf(stderr,
               "usage: ct_bench --seed N [--workload NAME]... [--seconds S] [--out FILE] "
               "[--trace FILE]\n"
               "       ct_bench --list --seed N\n"
               "       ct_bench --smoke [--trace FILE]\n");
  return 2;
}

/// Caps the load of a workload at load_width(): shard workers and worker
/// processes.
exp::RunSpec effective(exp::RunSpec spec) {
  if (spec.workers > 0) spec.workers = std::min(spec.workers, load_width());
  if (spec.rt_procs > 0) spec.rt_procs = std::min<std::int64_t>(spec.rt_procs, load_width());
  return spec;
}

std::string trace_file(const std::string& path, const std::string& workload) {
  const std::size_t slash = path.find_last_of('/');
  const std::size_t dot = path.find_last_of('.');
  if (dot == std::string::npos || (slash != std::string::npos && dot < slash)) {
    return path + "." + workload;
  }
  return path.substr(0, dot) + "." + workload + path.substr(dot);
}

bool write_all(int fd, const std::string& text) {
  std::size_t done = 0;
  while (done < text.size()) {
    const ssize_t n = ::write(fd, text.data() + done, text.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

std::string one_line(std::string text) {
  for (char& c : text) {
    if (c == '\n') c = ' ';
  }
  return text;
}

/// Child side of one phase: run, summarize, serialize.
std::string run_child(const Workload& w, const exp::RunSpec& spec, const Knobs& knobs,
                      const std::string& trace_path) {
  TallyArena::instance();  // mapped before the workload forks anything
  if (knobs.traced) SpanLog::instance().enable();
  Report r;
  try {
    {
      SpanScope root("bench", "workload");
      w.run(spec, knobs, r);
    }
    rusage self{}, children{};
    ::getrusage(RUSAGE_SELF, &self);
    ::getrusage(RUSAGE_CHILDREN, &children);
    r.set("peak_rss_mb", static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) / 1024.0);
    for (const char* name : kZeroWhenUnused) {
      if (!r.has(name)) r.set(name, 0.0);
    }
    if (knobs.traced) {
      const SpanSummary summary = SpanLog::instance().summarize();
      r.set("trace.spans", static_cast<double>(summary.spans));
      r.set("trace.main_self_s", summary.main_self_s);
      for (const char* layer : kSpanLayers) {
        const auto it = summary.self_s_by_layer.find(layer);
        r.set(std::string("trace.self_ms.") + layer,
              it == summary.self_s_by_layer.end() ? 0.0 : it->second * 1e3);
      }
      if (!trace_path.empty() && !SpanLog::instance().write_chrome(trace_path, w.name)) {
        r.fail("cannot write trace file " + trace_path);
      }
    }
  } catch (const std::exception& e) {
    r.fail(e.what());
  }
  std::ostringstream out;
  out.precision(17);
  for (const auto& [name, value] : r.metrics) out << "metric " << name << ' ' << value << '\n';
  out << "attempted " << r.attempted << '\n' << "failed " << r.failed << '\n';
  for (const std::string& e : r.errors) out << "error " << one_line(e) << '\n';
  return out.str();
}

struct Phase {
  Report report;
  double wall_s = 0.0;  ///< fork to reap, seen from this process
};

Phase run_phase(const Workload& w, const exp::RunSpec& spec, const Knobs& knobs,
                const std::string& trace_path) {
  Phase phase;
  std::fflush(nullptr);
  int fds[2];
  if (::pipe(fds) != 0) {
    phase.report.fail("pipe() failed");
    return phase;
  }
  const auto start = Clock::now();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    phase.report.fail("fork() failed");
    return phase;
  }
  if (pid == 0) {
    ::close(fds[0]);
    const bool ok = write_all(fds[1], run_child(w, spec, knobs, trace_path));
    ::close(fds[1]);
    ::_exit(ok ? 0 : 1);
  }
  ::close(fds[1]);
  std::string text;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fds[0], buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    text.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  phase.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    phase.report.fail(std::string(w.name) + " child exited abnormally");
  }
  std::istringstream lines(text);
  std::string kind;
  while (lines >> kind) {
    if (kind == "metric") {
      std::string name;
      double value = 0.0;
      lines >> name >> value;
      phase.report.set(name, value);
    } else if (kind == "attempted") {
      lines >> phase.report.attempted;
    } else if (kind == "failed") {
      lines >> phase.report.failed;
    } else if (kind == "error") {
      std::string message;
      std::getline(lines, message);
      phase.report.fail(message.empty() ? message : message.substr(1));
    }
  }
  return phase;
}

struct Result {
  std::string workload;
  std::string spec;
  Report report;
};

/// Untraced values win; the traced phase adds what only it measures.
Result run_workload(const Workload& w, const Knobs& knobs, const std::string& trace_path) {
  Result result;
  result.workload = w.name;
  const exp::RunSpec spec = effective(w.spec(knobs.seed, knobs.smoke));
  result.spec = spec.to_string();
  Knobs untraced = knobs;
  untraced.traced = false;
  Report& r = result.report;
  r = run_phase(w, spec, untraced, "").report;
  if (knobs.traced) {
    const Phase traced = run_phase(w, spec, knobs, trace_path.empty() ? "" : trace_file(trace_path, w.name));
    for (const auto& [name, value] : traced.report.metrics) {
      if (!r.has(name)) r.set(name, value);
    }
    r.metrics.erase("trace.main_self_s");
    // CPU per broadcast, not broadcasts per second: an open loop's rate is
    // its schedule, traced or not.
    if (traced.report.has("cpu_ms_per_bcast") && r.has("cpu_ms_per_bcast")) {
      r.set("trace.overhead_ratio",
            r.metrics.at("cpu_ms_per_bcast") / traced.report.metrics.at("cpu_ms_per_bcast"));
    }
    if (traced.report.has("trace.main_self_s")) {
      r.set("trace.coverage", traced.report.metrics.at("trace.main_self_s") / traced.wall_s);
    }
    r.attempted += traced.report.attempted;
    r.failed += traced.report.failed;
    r.errors.insert(r.errors.end(), traced.report.errors.begin(), traced.report.errors.end());
  }
  if (r.attempted > 0) {
    r.set("ok_ratio", static_cast<double>(r.attempted - r.failed) /
                          static_cast<double>(r.attempted));
  }
  if (r.failed > 0) {
    r.fail(std::to_string(r.failed) + " of " + std::to_string(r.attempted) +
           " broadcasts timed out or left live survivors uncolored");
  }
  if (r.attempted == 0) r.fail("no broadcast was measured");
  return result;
}

void print_result(const Result& result, bool traced) {
  std::printf("# %s %s\n", result.workload.c_str(), result.spec.c_str());
  for (const Metric& m : catalog()) {
    if (!applies(m, result.workload) || (m.traced_only && !traced)) continue;
    const auto it = result.report.metrics.find(m.name);
    if (it == result.report.metrics.end()) {
      std::printf("%s %s n/a %s\n", result.workload.c_str(), m.name, m.unit);
    } else {
      std::printf("%s %s %.9g %s\n", result.workload.c_str(), m.name, it->second, m.unit);
    }
  }
  for (const std::string& e : result.report.errors) {
    std::printf("%s GATE FAILED: %s\n", result.workload.c_str(), e.c_str());
  }
  std::fflush(stdout);
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

bool write_json(const std::string& path, const std::vector<Result>& results,
                const Knobs& knobs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"seed\": %llu, \"seconds\": %.17g, \"trace\": %s, \"workloads\": [",
               static_cast<unsigned long long>(knobs.seed), knobs.seconds,
               knobs.traced ? "true" : "false");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Result& result = results[i];
    const Report& r = result.report;
    std::fprintf(f,
                 "%s\n {\"name\": %s, \"spec\": %s, \"correct\": %s, \"attempted\": %lld, "
                 "\"failed\": %lld, \"errors\": [",
                 i ? "," : "", json_string(result.workload).c_str(),
                 json_string(result.spec).c_str(), r.errors.empty() ? "true" : "false",
                 static_cast<long long>(r.attempted), static_cast<long long>(r.failed));
    for (std::size_t e = 0; e < r.errors.size(); ++e) {
      std::fprintf(f, "%s%s", e ? ", " : "", json_string(r.errors[e]).c_str());
    }
    std::fprintf(f, "], \"metrics\": {");
    bool first = true;
    for (const Metric& m : catalog()) {
      const auto it = r.metrics.find(m.name);
      if (!applies(m, result.workload) || it == r.metrics.end() || !std::isfinite(it->second)) {
        continue;
      }
      std::fprintf(f, "%s\n  \"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ",",
                   m.name, it->second, m.unit);
      first = false;
    }
    std::fprintf(f, "}}");
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

void print_list(std::uint64_t seed) {
  for (const Workload& w : workloads()) {
    std::printf("workload %s %s\n  why: %s\n", w.name, w.spec(seed, false).to_string().c_str(),
                w.why);
  }
  for (const Metric& m : catalog()) {
    std::printf("metric %s %s %s %s %s %s\n", m.name, m.unit, m.better,
                m.end_to_end ? "end-to-end" : "layer", m.traced_only ? "traced" : "untraced",
                m.workloads ? m.workloads : "all");
  }
}

/// Every metric defined on a workload must have been printed with a finite value.
int check_smoke(const std::vector<Result>& results) {
  int missing = 0;
  for (const Result& result : results) {
    for (const Metric& m : catalog()) {
      if (!applies(m, result.workload)) continue;
      const auto it = result.report.metrics.find(m.name);
      if (it == result.report.metrics.end() || !std::isfinite(it->second)) {
        std::fprintf(stderr, "smoke: %s %s missing or not finite\n", result.workload.c_str(),
                     m.name);
        ++missing;
      }
    }
  }
  return missing;
}

bool parse_number(const char* text, double& out) {
  char* end = nullptr;
  out = std::strtod(text, &end);
  return end != text && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  Knobs knobs;
  bool have_seed = false;
  bool list = false;
  bool smoke = false;
  bool have_seconds = false;
  std::vector<std::string> selected;
  std::string out_path;
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--list") {
      list = true;
    } else if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--seed" && has_value) {
      char* end = nullptr;
      knobs.seed = std::strtoull(argv[++i], &end, 10);
      if (*end != '\0') return usage();
      have_seed = true;
    } else if (arg == "--seconds" && has_value) {
      if (!parse_number(argv[++i], knobs.seconds) || !(knobs.seconds > 0.0)) return usage();
      have_seconds = true;
    } else if (arg == "--workload" && has_value) {
      selected.push_back(argv[++i]);
    } else if (arg == "--out" && has_value) {
      out_path = argv[++i];
    } else if (arg == "--trace" && has_value) {
      trace_path = argv[++i];
      knobs.traced = true;
    } else {
      return usage();
    }
  }

  if (list) {
    if (!have_seed) return usage();
    print_list(knobs.seed);
    return 0;
  }
  if (smoke) {
    knobs.smoke = true;
    knobs.traced = true;
    if (!have_seed) knobs.seed = 1;
    if (!have_seconds) knobs.seconds = 0.25;
  } else if (!have_seed) {
    return usage();
  }

  std::vector<const Workload*> chosen;
  for (const Workload& w : workloads()) {
    bool pick = selected.empty();
    for (const std::string& name : selected) pick = pick || name == w.name;
    if (pick) chosen.push_back(&w);
  }
  for (const std::string& name : selected) {
    bool known = false;
    for (const Workload& w : workloads()) known = known || name == w.name;
    if (!known) {
      std::fprintf(stderr, "ct_bench: unknown workload '%s'\n", name.c_str());
      return 2;
    }
  }

  std::vector<Result> results;
  bool ok = true;
  for (const Workload* w : chosen) {
    results.push_back(run_workload(*w, knobs, trace_path));
    print_result(results.back(), knobs.traced);
    ok = ok && results.back().report.errors.empty();
  }
  if (!out_path.empty() && !write_json(out_path, results, knobs)) {
    std::fprintf(stderr, "ct_bench: cannot write %s\n", out_path.c_str());
    return 1;
  }
  if (smoke) {
    const int missing = check_smoke(results);
    std::printf("smoke: %s\n", ok && missing == 0 ? "ok" : "FAILED");
    if (missing > 0) return 1;
  }
  return ok ? 0 : 1;
}
