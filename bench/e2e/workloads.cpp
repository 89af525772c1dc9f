// The five ct_bench workloads. Each one sets up several times (setup_s is the
// median), then measures for Knobs::seconds of wall time, calling the public
// functions of the layers and timing them from outside.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>
#include <thread>

#include "analysis/bounds.hpp"
#include "bench.hpp"
#include "experiment/runner.hpp"
#include "probe.hpp"
#include "protocol/tree_broadcast.hpp"
#include "rt/chaos.hpp"
#include "rt/engine.hpp"
#include "rt/harness.hpp"
#include "rt/udp_engine.hpp"
#include "sim/simulator.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/thread_pool.hpp"
#include "topology/factory.hpp"

namespace ctbench {
namespace {

namespace rt = ct::rt;
namespace proto = ct::proto;
namespace support = ct::support;
using support::Samples;

/// Per-epoch deadline on the runtimes. No healthy epoch of any workload
/// comes near it; one that does counts as failed.
constexpr std::chrono::nanoseconds kEpochTimeout = std::chrono::seconds(2);

double since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

int setup_count(const Knobs& knobs) { return knobs.smoke ? 2 : 5; }

double seconds_of(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

double cpu_of(const rusage& r) { return seconds_of(r.ru_utime) + seconds_of(r.ru_stime); }

/// Resource use at one instant: the whole process (live and exited
/// threads), the calling thread, and reaped child processes.
struct Usage {
  Clock::time_point wall = Clock::now();
  rusage self{};
  rusage thread{};
  rusage children{};
  Usage() {
    ::getrusage(RUSAGE_SELF, &self);
    ::getrusage(RUSAGE_THREAD, &thread);
    ::getrusage(RUSAGE_CHILDREN, &children);
  }
};

/// Cost of one measured phase. Workers are every thread but the calling
/// one, plus reaped child processes (the rt-udp workers).
struct Cost {
  double wall_s;
  double cpu_s;
  double worker_cpu_s;
  double sys_s;
  double vcsw;
  double ivcsw;

  Cost(const Usage& a, const Usage& b)
      : wall_s(std::chrono::duration<double>(b.wall - a.wall).count()),
        cpu_s(cpu_of(b.self) - cpu_of(a.self) + cpu_of(b.children) - cpu_of(a.children)),
        worker_cpu_s(cpu_s - (cpu_of(b.thread) - cpu_of(a.thread))),
        sys_s(seconds_of(b.self.ru_stime) - seconds_of(a.self.ru_stime) +
              seconds_of(b.children.ru_stime) - seconds_of(a.children.ru_stime)),
        vcsw(static_cast<double>(b.self.ru_nvcsw - a.self.ru_nvcsw + b.children.ru_nvcsw -
                                 a.children.ru_nvcsw)),
        ivcsw(static_cast<double>(b.self.ru_nivcsw - a.self.ru_nivcsw +
                                  b.children.ru_nivcsw - a.children.ru_nivcsw)) {}
};

struct SetupTimes {
  Samples total_s;
  Samples build_ms;
  Samples construct_ms;
  Samples warmup_s;
};

void report_setup(Report& r, const SetupTimes& times) {
  r.set("setup_s", times.total_s.median());
  r.set("topology.build_ms", times.build_ms.median());
  r.set("experiment.warmup_s", times.warmup_s.median());
  if (!times.construct_ms.empty()) r.set("rt.engine.construct_ms", times.construct_ms.median());
}

/// Per-broadcast costs; `bcasts` is their denominator, `messages` the sends
/// they made and `width` the threads or processes doing the work.
void report_cost(Report& r, const Cost& c, double bcasts, double messages, double width) {
  r.set("cpu_ms_per_bcast", 1e3 * c.cpu_s / bcasts);
  r.set("experiment.measured_s", c.wall_s);
  r.set("exec.threads", width);
  r.set("exec.worker_cpu_ms_per_bcast", 1e3 * c.worker_cpu_s / bcasts);
  r.set("exec.sys_ms_per_bcast", 1e3 * c.sys_s / bcasts);
  r.set("exec.util", c.worker_cpu_s / (c.wall_s * width));
  r.set("exec.msgs_per_cpu_s", messages / c.worker_cpu_s);
  r.set("exec.vcsw_per_bcast", c.vcsw / bcasts);
  r.set("exec.ivcsw_per_bcast", c.ivcsw / bcasts);
}

void report_latency(Report& r, const Samples& latency_us) {
  if (latency_us.empty()) return;  // every broadcast failed; the gate reports it
  r.set("lat_p50_us", latency_us.percentile(0.5));
  r.set("lat_p90_us", latency_us.percentile(0.9));
}

/// Diagnostic tail: p99 and the highest percentile with at least ten
/// samples beyond it.
void report_tail(Report& r, const Samples& latency_us) {
  const auto n = static_cast<double>(latency_us.count());
  r.set("rt.harness.samples", n);
  if (latency_us.empty()) return;
  r.set("rt.harness.lat_p99_us", latency_us.percentile(0.99));
  r.set("rt.harness.lat_tail_us", latency_us.percentile(std::max(0.5, 1.0 - 10.0 / n)));
}

/// Protocol-layer metrics of the traced pass, per broadcast.
void report_protocol(Report& r, const Tally& t, double bcasts, double procs, double cpu_s) {
  r.set("protocol.calls_per_bcast.begin", static_cast<double>(t.calls[Tally::kBegin]) / bcasts);
  r.set("protocol.calls_per_bcast.receive",
        static_cast<double>(t.calls[Tally::kReceive]) / bcasts);
  r.set("protocol.calls_per_bcast.sent", static_cast<double>(t.calls[Tally::kSent]) / bcasts);
  r.set("protocol.calls_per_bcast.timer", static_cast<double>(t.calls[Tally::kTimer]) / bcasts);
  r.set("protocol.busy_ms_per_bcast", static_cast<double>(t.busy_ns) * 1e-6 / bcasts);
  r.set("protocol.ns_per_call",
        static_cast<double>(t.busy_ns) / static_cast<double>(std::max<std::int64_t>(1, t.total_calls())));
  r.set("protocol.cpu_share", static_cast<double>(t.busy_ns) * 1e-9 / cpu_s);
  const char* kinds[Tally::kSends] = {"tree", "correction", "corr_reply", "ack", "other"};
  for (int i = 0; i < Tally::kSends; ++i) {
    r.set(std::string("protocol.sends_per_proc.") + kinds[i],
          static_cast<double>(t.sends[i]) / (bcasts * procs));
  }
  r.set("protocol.colored_per_bcast", static_cast<double>(t.colored) / bcasts);
  r.set("protocol.timers_per_bcast", static_cast<double>(t.timers_set) / bcasts);
  r.set("protocol.factory_us_per_bcast", static_cast<double>(t.factory_ns) * 1e-3 / bcasts);
}

/// Builds one protocol through `make`. In the traced pass the build is
/// spanned, timed into the calling thread's tally, and the result wrapped
/// in a CountingProtocol.
template <class Make>
std::unique_ptr<sim::Protocol> build(bool traced, Make&& make) {
  if (!traced) return make();
  SpanScope span("protocol", "protocol.factory");
  Tally& tally = TallyArena::instance().local();
  const std::int64_t start = now_ns();
  std::unique_ptr<sim::Protocol> protocol = std::make_unique<CountingProtocol>(make());
  tally.factory_ns += now_ns() - start;
  ++tally.factory_calls;
  return protocol;
}

std::unique_ptr<proto::CorrectedTreeBroadcast> corrected_tree(
    const topo::Tree& tree, const proto::CorrectionConfig& correction) {
  return std::make_unique<proto::CorrectedTreeBroadcast>(tree, correction);
}

std::unique_ptr<topo::Tree> build_tree(const exp::RunSpec& spec, SetupTimes& times) {
  SpanScope span("topology", "topology.build");
  const auto start = Clock::now();
  auto tree = std::make_unique<topo::Tree>(topo::make_tree(spec.tree, spec.params.P));
  times.build_ms.add(since(start) * 1e3);
  return tree;
}

/// Runs `make` setup_count() times, destroying the previous state first so
/// only one is ever alive; keeps the last. Each run is one setup_s sample.
template <class State, class Make>
void repeat_setup(const Knobs& knobs, SetupTimes& times, std::optional<State>& state,
                  Make&& make) {
  for (int i = 0; i < setup_count(knobs); ++i) {
    state.reset();
    SpanScope span("bench", "setup");
    const auto start = Clock::now();
    state.emplace(make());
    times.total_s.add(since(start));
  }
}

/// The rt::ChaosPlan the spec's fault knobs describe (the mapping exp::run
/// applies).
rt::ChaosPlan chaos_plan(const exp::RunSpec& spec) {
  rt::ChaosOptions chaos;
  chaos.seed = spec.faults.chaos_seed;
  chaos.crash_fraction = spec.faults.crash_fraction;
  chaos.crash_window_ns = spec.faults.crash_window_us * 1000;
  chaos.drop_prob = spec.faults.drop_prob;
  chaos.delay_prob = spec.faults.delay_prob;
  chaos.duplicate_prob = spec.faults.duplicate_prob;
  chaos.delay_ns = spec.faults.delay_us * 1000;
  chaos.revive_fraction = spec.faults.revive_fraction;
  chaos.revive_after_ns = spec.faults.revive_after_us * 1000;
  rt::ChaosPlan plan(chaos);
  for (const topo::Rank victim : spec.faults.kill) plan.kill_at_ns(victim, 0);
  return plan;
}

/// Worker CPU outside protocol handlers, per broadcast. Handler time on the
/// calling thread (begin() on the coordinator) is not worker time.
double exec_self_ms(const Cost& cost, const Tally& all, const Tally& caller, double bcasts) {
  const double worker_busy_s = static_cast<double>(all.busy_ns - caller.busy_ns) * 1e-9;
  return 1e3 * (cost.worker_cpu_s - worker_busy_s) / bcasts;
}

// --- sim-sweep -----------------------------------------------------------------

/// The untimed fault-free rep of the correctness gate: synchronized checked
/// correction must match Corollary 1 and Lemma 2 exactly.
void gate_closed_forms(topo::Rank procs, Report& r) {
  exp::Scenario scenario;
  scenario.params.P = procs;
  scenario.tree = topo::parse_tree_spec("binomial");
  scenario.correction.kind = proto::CorrectionKind::kChecked;
  scenario.correction.start = proto::CorrectionStart::kSynchronized;
  const sim::RunResult run = exp::run_once(scenario, 0);
  const std::int64_t messages =
      ct::analysis::checked_correction_fault_free_messages(scenario.params);
  const sim::Time latency = ct::analysis::checked_correction_fault_free_latency(scenario.params);
  const std::int64_t correction_messages = run.total_messages - (procs - 1);
  if (!run.fully_colored() || correction_messages != std::int64_t{procs} * messages) {
    r.fail("fault-free checked rep at P=" + std::to_string(procs) + " sent " +
           std::to_string(correction_messages) + " correction messages; Corollary 1 says " +
           std::to_string(std::int64_t{procs} * messages));
  }
  if (run.correction_time() != latency) {
    r.fail("fault-free checked rep at P=" + std::to_string(procs) + " corrected in " +
           std::to_string(run.correction_time()) + " ticks; Lemma 2 says " +
           std::to_string(latency));
  }
}

struct SimSetup {
  std::unique_ptr<topo::Tree> tree;
  exp::Scenario scenario;
  std::unique_ptr<support::ThreadPool> pool;
  std::vector<exp::ReplicaPlan> plans;  ///< one per pool worker, traced loop only
};

/// Per pool worker sums of the traced rep loop.
struct alignas(64) SimWorker {
  std::int64_t events = 0;
  std::int64_t run_ns = 0;
  std::int64_t fault_ns = 0;
};

/// Reps [begin, end) through the public pieces run_replicated composes —
/// scenario_faults, the protocol constructor and Simulator::run — so the
/// protocol can be wrapped and each call spanned. Per-rep aggregates merge
/// in rep order, which makes the result equal run_replicated_range's.
exp::Aggregate traced_reps(SimSetup& s, std::size_t begin, std::size_t end,
                           std::uint64_t seed, std::vector<SimWorker>& workers) {
  std::vector<exp::Aggregate> parts(end - begin);
  const std::int64_t parent = SpanLog::instance().current();
  s.pool->parallel_for_chunks(end - begin, 1, [&](std::size_t w, std::size_t b, std::size_t e) {
    exp::ReplicaPlan& plan = s.plans[w];
    for (std::size_t i = b; i < e; ++i) {
      SpanScope rep("experiment", "sim.rep", parent);
      std::int64_t start = now_ns();
      {
        SpanScope span("experiment", "exp.scenario_faults");
        plan.faults = exp::scenario_faults(s.scenario, support::derive_seed(seed, begin + i));
      }
      workers[w].fault_ns += now_ns() - start;
      const auto protocol = build(true, [&] {
        return std::make_unique<proto::CorrectedTreeBroadcast>(
            *s.tree, s.scenario.correction, 0, &plan.tree, &plan.correction);
      });
      start = now_ns();
      {
        SpanScope span("sim", "sim.run");
        sim::Simulator simulator(s.scenario.params, &plan.faults);
        simulator.run(*protocol, sim::RunOptions{}, plan.workspace, plan.result);
      }
      workers[w].run_ns += now_ns() - start;
      workers[w].events += plan.result.events_processed;
      parts[i].add(plan.result);
    }
  });
  exp::Aggregate total;
  for (const exp::Aggregate& part : parts) total.merge(part);
  return total;
}

void run_sim_sweep(const exp::RunSpec& spec, const Knobs& knobs, Report& r) {
  gate_closed_forms(spec.params.P, r);

  const auto width = static_cast<std::size_t>(load_width());
  const std::size_t warm = (knobs.smoke ? 1 : 4) * width;    // reps [0, warm)
  const std::size_t batch = (knobs.smoke ? 2 : 8) * width;   // reps per measured slice
  SetupTimes times;
  std::optional<SimSetup> s;
  std::optional<double> canary;
  double canary_p99 = 0.0;
  repeat_setup(knobs, times, s, [&] {
    SimSetup next;
    next.tree = build_tree(spec, times);
    next.scenario = spec.to_scenario();
    // Resolved once here instead of in every run_replicated_range call.
    proto::CorrectionConfig& correction = next.scenario.correction;
    if (correction.kind != proto::CorrectionKind::kNone &&
        correction.start == proto::CorrectionStart::kSynchronized && correction.sync_time == 0) {
      correction.sync_time = proto::fault_free_dissemination_time(*next.tree, spec.params);
    }
    next.pool = std::make_unique<support::ThreadPool>(width);
    next.plans = std::vector<exp::ReplicaPlan>(width);
    SpanScope span("experiment", "experiment.warmup");
    const auto start = Clock::now();
    const exp::Aggregate agg =
        exp::run_replicated_range(next.scenario, 0, warm, spec.seed, next.pool.get());
    times.warmup_s.add(since(start));
    const double mean = agg.quiescence_latency.mean();
    if (canary && *canary != mean) {
      r.fail("mean quiescence of reps [0, " + std::to_string(warm) + ") changed between setups");
    }
    canary = mean;
    canary_p99 = agg.quiescence_latency.percentile(0.99);
    if (agg.not_fully_colored > 0) r.fail("warm-up reps left live processes uncolored");
    return next;
  });

  std::vector<SimWorker> workers(width);
  if (knobs.traced) {
    const exp::Aggregate check = traced_reps(*s, 0, warm, spec.seed, workers);
    if (check.quiescence_latency.mean() != *canary) {
      r.fail("the traced rep loop disagrees with run_replicated on reps [0, warm)");
    }
    TallyArena::instance().reset();
    workers.assign(width, SimWorker{});
  }

  // The latency a sweep user waits for: one run_replicated_range call, i.e.
  // one sweep point of `batch` reps on the pool.
  Samples slice_us;
  double messages_per_proc = 0.0;
  std::size_t rep = warm;
  const Usage u0;
  {
    SpanScope span("experiment", "experiment.measure");
    while (since(u0.wall) < knobs.seconds) {
      const auto start = Clock::now();
      exp::Aggregate agg;
      {
        SpanScope slice("experiment", "experiment.slice");
        agg = knobs.traced
                  ? traced_reps(*s, rep, rep + batch, spec.seed, workers)
                  : exp::run_replicated_range(s->scenario, rep, rep + batch, spec.seed,
                                              s->pool.get());
      }
      slice_us.add(since(start) * 1e6);
      for (const double m : agg.messages_per_process.values()) messages_per_proc += m;
      r.attempted += agg.runs;
      r.failed += agg.not_fully_colored;
      rep += batch;
    }
  }
  const Cost cost(u0, Usage{});

  const auto reps = static_cast<double>(r.attempted);
  const auto procs = static_cast<double>(spec.params.P);
  report_setup(r, times);
  r.set("bcast_per_s", reps / cost.wall_s);
  report_latency(r, slice_us);
  r.set("msgs_per_proc", messages_per_proc / reps);
  report_cost(r, cost, reps, messages_per_proc * procs, static_cast<double>(width));
  r.set("sim.mean_quiescence_ticks", *canary);
  r.set("sim.p99_quiescence_ticks", canary_p99);
  if (knobs.traced) {
    SimWorker sum;
    for (const SimWorker& w : workers) {
      sum.events += w.events;
      sum.run_ns += w.run_ns;
      sum.fault_ns += w.fault_ns;
    }
    const Tally tally = TallyArena::instance().sum();
    const double engine_s = static_cast<double>(sum.run_ns - tally.busy_ns) * 1e-9;
    r.set("sim.events_per_rep", static_cast<double>(sum.events) / reps);
    r.set("sim.run_ms_per_rep", static_cast<double>(sum.run_ns) * 1e-6 / reps);
    r.set("sim.engine_self_ms_per_rep", engine_s * 1e3 / reps);
    r.set("exec.self_ms_per_bcast", engine_s * 1e3 / reps);
    r.set("sim.events_per_engine_s", static_cast<double>(sum.events) / engine_s);
    r.set("sim.fault_sample_ms_per_rep", static_cast<double>(sum.fault_ns) * 1e-6 / reps);
    report_protocol(r, tally, reps, procs, cost.cpu_s);
  }
}

// --- in-process runtime workloads ---------------------------------------------

struct RtSetup {
  std::unique_ptr<topo::Tree> tree;
  std::unique_ptr<rt::Engine> engine;
};

/// Tree, engine (with the spec's chaos plan), then `warm(setup)` timed as
/// the warmup.
template <class Warm>
RtSetup rt_setup(const exp::RunSpec& spec, SetupTimes& times, Warm&& warm) {
  RtSetup s;
  s.tree = build_tree(spec, times);
  {
    SpanScope span("rt", "rt.engine.construct");
    const auto start = Clock::now();
    rt::EngineOptions options;
    options.workers = spec.workers;
    options.repair = spec.faults.repair;
    s.engine = std::make_unique<rt::Engine>(
        spec.params.P, std::vector<char>(static_cast<std::size_t>(spec.params.P), 0), options);
    times.construct_ms.add(since(start) * 1e3);
  }
  if (spec.faults.chaos_enabled()) s.engine->set_chaos(chaos_plan(spec));
  SpanScope span("experiment", "experiment.warmup");
  const auto start = Clock::now();
  warm(s);
  times.warmup_s.add(since(start));
  return s;
}

void run_rt_bcast(const exp::RunSpec& spec, const Knobs& knobs, Report& r) {
  SetupTimes times;
  std::optional<RtSetup> s;
  repeat_setup(knobs, times, s, [&] {
    return rt_setup(spec, times, [&](RtSetup& st) {
      for (std::int64_t i = 0; i < spec.warmup; ++i) {
        const auto protocol = corrected_tree(*st.tree, spec.correction);
        st.engine->run_epoch(*protocol, kEpochTimeout);
      }
    });
  });

  rt::Engine& engine = *s->engine;
  TallyArena& arena = TallyArena::instance();
  const Tally& caller = arena.local();
  arena.reset();
  Samples latency_us, call_us, bracket_us;
  double messages = 0.0;
  const Usage u0;
  {
    SpanScope span("experiment", "experiment.measure");
    while (since(u0.wall) < knobs.seconds) {
      const auto protocol =
          build(knobs.traced, [&] { return corrected_tree(*s->tree, spec.correction); });
      const auto start = Clock::now();
      rt::EpochResult epoch;
      {
        SpanScope run("rt", "rt.run_epoch");
        epoch = engine.run_epoch(*protocol, kEpochTimeout);
      }
      const double call = since(start) * 1e6;
      ++r.attempted;
      messages += static_cast<double>(epoch.total_messages);
      if (epoch.degraded()) {
        ++r.failed;
        continue;
      }
      const double completion = static_cast<double>(epoch.completion_ns) * 1e-3;
      latency_us.add(completion);
      call_us.add(call);
      bracket_us.add(call - completion);
    }
  }
  const Cost cost(u0, Usage{});

  const auto epochs = static_cast<double>(r.attempted);
  const auto width = static_cast<double>(engine.worker_threads());
  report_setup(r, times);
  r.set("bcast_per_s", epochs / cost.wall_s);
  report_latency(r, latency_us);
  r.set("msgs_per_proc", messages / (epochs * spec.params.P));
  report_cost(r, cost, epochs, messages, width);
  report_tail(r, latency_us);
  if (!latency_us.empty()) {
    r.set("rt.engine.call_p50_us", call_us.median());
    r.set("rt.engine.completion_p50_us", latency_us.median());
    r.set("rt.engine.bracket_p50_us", bracket_us.median());
  }
  if (knobs.traced) {
    const Tally tally = arena.sum();
    report_protocol(r, tally, epochs, spec.params.P, cost.cpu_s);
    r.set("exec.self_ms_per_bcast", exec_self_ms(cost, tally, caller, epochs));
  }
}

void run_rt_stream(const exp::RunSpec& spec, const Knobs& knobs, Report& r) {
  if (spec.rate <= 0.0) throw std::logic_error("rt-stream needs an open-loop rate=");
  rt::StreamOptions options;
  options.window = static_cast<std::int32_t>(spec.window);
  options.rate = spec.rate;
  options.epoch_timeout = kEpochTimeout;

  SetupTimes times;
  std::optional<RtSetup> s;
  repeat_setup(knobs, times, s, [&] {
    return rt_setup(spec, times, [&](RtSetup& st) {
      rt::StreamOptions warm = options;
      warm.epochs = spec.warmup;
      rt::measure_stream(*st.engine, [&] { return corrected_tree(*st.tree, spec.correction); },
                         warm);
    });
  });

  TallyArena& arena = TallyArena::instance();
  const Tally& caller = arena.local();
  arena.reset();
  // Open loop: the run length is the arrival schedule.
  options.epochs = std::max<std::int64_t>(1, std::llround(spec.rate * knobs.seconds));
  const rt::ProtocolFactory factory = [&] {
    return build(knobs.traced, [&] { return corrected_tree(*s->tree, spec.correction); });
  };
  const Usage u0;
  rt::StreamHarnessResult result;
  {
    SpanScope span("experiment", "experiment.measure");
    SpanScope call("rt", "rt.measure_stream");
    result = rt::measure_stream(*s->engine, factory, options);
  }
  const Cost cost(u0, Usage{});

  r.attempted = result.epochs;
  r.failed = result.timeouts + result.incomplete;
  if (result.epochs != options.epochs) r.fail("the stream retired fewer epochs than it admitted");
  const auto epochs = static_cast<double>(result.epochs);
  report_setup(r, times);
  r.set("bcast_per_s", epochs / cost.wall_s);
  report_latency(r, result.sojourn_us);
  r.set("msgs_per_proc", static_cast<double>(result.total_messages) / (epochs * spec.params.P));
  report_cost(r, cost, epochs, static_cast<double>(result.total_messages),
              static_cast<double>(s->engine->worker_threads()));
  report_tail(r, result.sojourn_us);

  Samples admit_lag_us;
  double service_ns = 0.0;
  for (const rt::StreamEpoch& epoch : result.raw.epochs) {
    admit_lag_us.add(static_cast<double>(epoch.admitted_ns - epoch.scheduled_ns) * 1e-3);
    service_ns += static_cast<double>(epoch.service_ns());
  }
  r.set("rt.stream.admit_lag_p50_us", admit_lag_us.percentile(0.5));
  r.set("rt.stream.admit_lag_p90_us", admit_lag_us.percentile(0.9));
  if (!result.service_us.empty()) {
    r.set("rt.stream.service_p50_us", result.service_us.percentile(0.5));
    r.set("rt.stream.service_p90_us", result.service_us.percentile(0.9));
  }
  r.set("rt.stream.inflight_mean", service_ns * 1e-9 / result.wall_seconds);
  if (knobs.traced) {
    const Tally tally = arena.sum();
    report_protocol(r, tally, epochs, spec.params.P, cost.cpu_s);
    r.set("exec.self_ms_per_bcast", exec_self_ms(cost, tally, caller, epochs));
  }
}

/// Survivor trees per membership generation, rebuilt (and timed) only when
/// a repair changed the membership — the cache exp::run keeps too.
class SurvivorTrees {
 public:
  SurvivorTrees(topo::TreeSpec spec, const topo::Tree& full) : spec_(spec), full_(full) {}

  const topo::Tree& for_view(const rt::MembershipView& view) {
    if (view.is_identity()) return full_;
    if (!repaired_ || generation_ != view.generation()) {
      SpanScope span("topology", "topology.survivor_rebuild");
      const auto start = Clock::now();
      repaired_ = std::make_unique<topo::Tree>(topo::make_survivor_tree(spec_, view.num_live()));
      generation_ = view.generation();
      ++rebuilds;
      rebuild_ms.add(since(start) * 1e3);
    }
    return *repaired_;
  }

  std::int64_t rebuilds = 0;
  Samples rebuild_ms;

 private:
  topo::TreeSpec spec_;
  const topo::Tree& full_;
  std::unique_ptr<topo::Tree> repaired_;
  std::int32_t generation_ = 0;
};

struct ChaosSetup {
  RtSetup rt;
  std::unique_ptr<SurvivorTrees> trees;
  double epoch_s = 0.0;  ///< warmup wall per epoch, sizes the measured call
};

void run_rt_checked_chaos(const exp::RunSpec& spec, const Knobs& knobs, Report& r) {
  const auto factory = [&spec](SurvivorTrees& trees, bool traced) -> rt::MembershipProtocolFactory {
    return [&spec, &trees, traced](const rt::MembershipView& view) {
      const topo::Tree& tree = trees.for_view(view);
      return build(traced, [&] { return corrected_tree(tree, spec.correction); });
    };
  };
  rt::HarnessOptions harness;
  harness.warmup = 0;
  harness.epoch_timeout = kEpochTimeout;

  SetupTimes times;
  std::optional<ChaosSetup> s;
  repeat_setup(knobs, times, s, [&] {
    ChaosSetup next;
    next.rt = rt_setup(spec, times, [&](RtSetup& st) {
      next.trees = std::make_unique<SurvivorTrees>(spec.tree, *st.tree);
      // The dead set takes a few epochs to reach its steady size, so only
      // the last two thirds of the warmup size the measured call.
      rt::HarnessOptions warm = harness;
      warm.warmup = spec.warmup / 3;
      warm.iterations = spec.warmup - warm.warmup;
      // Warm up with the measured factory, so the traced pass sizes its call
      // by traced epochs.
      const rt::HarnessResult result =
          rt::measure_recovery(*st.engine, factory(*next.trees, knobs.traced), warm);
      next.epoch_s =
          result.wall_seconds / static_cast<double>(std::max<std::int64_t>(1, result.iterations));
      // The warmup call's pending revivals end with it; revive every rank
      // it left dead so the measured call starts from the full membership.
      std::vector<topo::Rank> dead;
      for (topo::Rank rank = 1; rank < spec.params.P; ++rank) {
        if (st.engine->is_dead(rank)) dead.push_back(rank);
      }
      st.engine->repair_membership({}, dead);
    });
    return next;
  });

  SurvivorTrees& trees = *s->trees;
  trees.rebuilds = 0;
  trees.rebuild_ms = Samples{};
  TallyArena& arena = TallyArena::instance();
  const Tally& caller = arena.local();
  arena.reset();
  // measure_recovery keeps revival and replay-log state across its epochs,
  // so the measured phase is one call sized from the warmup's epoch time.
  harness.iterations =
      std::clamp<std::int64_t>(std::llround(knobs.seconds / s->epoch_s), 1, 1'000'000);
  const Usage u0;
  rt::HarnessResult result;
  {
    SpanScope span("experiment", "experiment.measure");
    SpanScope call("rt", "rt.measure_recovery");
    result = rt::measure_recovery(*s->rt.engine, factory(trees, knobs.traced), harness);
  }
  const Cost cost(u0, Usage{});

  r.attempted = result.iterations;
  r.failed = result.timeouts + result.incomplete;
  const auto epochs = static_cast<double>(result.iterations);
  report_setup(r, times);
  r.set("bcast_per_s", epochs / cost.wall_s);
  report_latency(r, result.latency_us);
  r.set("msgs_per_proc", static_cast<double>(result.total_messages) / (epochs * spec.params.P));
  report_cost(r, cost, epochs, static_cast<double>(result.total_messages),
              static_cast<double>(s->rt.engine->worker_threads()));
  report_tail(r, result.latency_us);
  r.set("topology.survivor_rebuilds", static_cast<double>(trees.rebuilds));
  if (!trees.rebuild_ms.empty()) r.set("topology.survivor_rebuild_ms", trees.rebuild_ms.median());
  r.set("rt.chaos.crashed_per_bcast", static_cast<double>(result.ranks_crashed) / epochs);
  r.set("rt.chaos.dropped_per_bcast", static_cast<double>(result.messages_dropped) / epochs);
  r.set("rt.chaos.degraded_epochs", static_cast<double>(result.epochs_degraded));
  r.set("rt.membership.repairs", static_cast<double>(result.repairs));
  r.set("rt.membership.rejoins", static_cast<double>(result.rejoins));
  r.set("rt.membership.replayed_epochs", static_cast<double>(result.replayed_epochs));
  r.set("rt.membership.state_transfers", static_cast<double>(result.state_transfers));
  r.set("rt.membership.epochs_to_converge", static_cast<double>(result.epochs_to_converge));
  if (knobs.traced) {
    const Tally tally = arena.sum();
    report_protocol(r, tally, epochs, spec.params.P, cost.cpu_s);
    r.set("exec.self_ms_per_bcast", exec_self_ms(cost, tally, caller, epochs));
  }
}

// --- udp-lossy -----------------------------------------------------------------

void run_udp_lossy(const exp::RunSpec& spec, const Knobs& knobs, Report& r) {
  // Counters and stamps live in the shared arena, mapped before any fork.
  TallyArena& arena = TallyArena::instance();
  std::unique_ptr<topo::Tree> tree;
  // Each worker process counts factory calls (one per epoch) in its own
  // copy of this variable; the parent resets it before every fork.
  std::int64_t calls = 0;
  bool traced_calls = false;
  const rt::ProtocolFactory factory = [&]() -> std::unique_ptr<sim::Protocol> {
    const std::int64_t stamp = now_ns();
    ++calls;
    if (calls == 1) atomic_min(arena.first_factory_ns(), stamp);
    if (calls == spec.warmup + 1) atomic_min(arena.first_measured_ns(), stamp);
    return build(traced_calls, [&] { return corrected_tree(*tree, spec.correction); });
  };

  rt::UdpEngineOptions options;
  options.num_procs = spec.params.P;
  options.failed.assign(static_cast<std::size_t>(spec.params.P), 0);
  options.procs = static_cast<int>(spec.rt_procs);
  options.chaos = chaos_plan(spec);
  options.warmup = spec.warmup;
  options.epoch_timeout = kEpochTimeout;
  const auto measure = [&](std::int64_t iterations) {
    calls = 0;
    arena.first_factory_ns().store(std::numeric_limits<std::int64_t>::max());
    arena.first_measured_ns().store(std::numeric_limits<std::int64_t>::max());
    options.iterations = iterations;
    SpanScope span("rt", "rt.measure_broadcast_udp");
    rt::UdpRunResult result = rt::measure_broadcast_udp(options, factory);
    if (!result.error.empty()) throw std::runtime_error(result.error);
    return result;
  };

  // Each call forks fresh worker processes (socket bind, fork, warmup),
  // measures `batch` epochs and drains their acks. Calls repeat until the
  // time is up; a fixed batch bounds the per-epoch reports the parent
  // collects, and every call is one setup_s sample.
  SetupTimes times;
  tree = build_tree(spec, times);
  traced_calls = knobs.traced;
  const std::int64_t batch = knobs.smoke ? 50 : 500;
  Samples latency_us;
  double measured_s = 0.0;
  double messages = 0.0;
  std::int64_t calls_made = 0;
  std::int64_t retransmits = 0;
  std::int64_t dup_drops = 0;
  std::int64_t dropped = 0;
  int procs_used = 0;
  const Usage u0;
  {
    SpanScope span("experiment", "experiment.measure");
    while (since(u0.wall) < knobs.seconds) {
      const std::int64_t start = now_ns();
      const rt::UdpRunResult udp = measure(batch);
      const std::int64_t first_measured = arena.first_measured_ns().load();
      times.total_s.add(static_cast<double>(first_measured - start) * 1e-9);
      times.warmup_s.add(static_cast<double>(first_measured - arena.first_factory_ns().load()) *
                         1e-9);
      const rt::HarnessResult& result = udp.harness;
      latency_us.merge(result.latency_us);
      measured_s += result.wall_seconds;
      messages += static_cast<double>(result.total_messages);
      r.attempted += result.iterations;
      r.failed += result.timeouts + result.incomplete;
      retransmits += result.retransmits;
      dup_drops += result.dup_drops;
      dropped += result.messages_dropped;
      procs_used = udp.procs_used;
      ++calls_made;
    }
  }
  const Usage u1;
  const Cost cost(u0, u1);

  // Worker processes live through warmup, measured epochs and the final ack
  // drain; their costs are spread over every epoch they ran.
  const auto epochs = static_cast<double>(r.attempted);
  const auto all_epochs = static_cast<double>(calls_made * (batch + spec.warmup));
  const double procs = spec.params.P;
  report_setup(r, times);
  r.set("bcast_per_s", epochs / measured_s);
  report_latency(r, latency_us);
  r.set("msgs_per_proc", messages / (epochs * procs));
  report_cost(r, cost, all_epochs, messages / epochs * all_epochs, procs_used);
  report_tail(r, latency_us);
  r.set("rt.chaos.dropped_per_bcast", static_cast<double>(dropped) / all_epochs);
  r.set("rt.transport.retransmits_per_bcast", static_cast<double>(retransmits) / all_epochs);
  r.set("rt.transport.dup_drops_per_bcast", static_cast<double>(dup_drops) / all_epochs);
  r.set("rt.transport.useful_retx_ratio",
        retransmits > 0 ? static_cast<double>(retransmits - dup_drops) /
                              static_cast<double>(retransmits)
                        : 0.0);
  r.set("rt.transport.worker_peak_rss_mb", static_cast<double>(u1.children.ru_maxrss) / 1024.0);
  if (knobs.traced) {
    const Tally tally = arena.sum();
    report_protocol(r, tally, all_epochs, procs, cost.cpu_s);
    r.set("exec.self_ms_per_bcast", exec_self_ms(cost, tally, Tally{}, all_epochs));
  }
}

// --- registry ----------------------------------------------------------------

std::string seed_key(std::uint64_t seed) { return ",seed=" + std::to_string(seed); }

std::string chaos_key(std::uint64_t seed) {
  return ",chaos-seed=" + std::to_string(support::derive_seed(seed, 0xc4a05));
}

exp::RunSpec sim_sweep_spec(std::uint64_t seed, bool smoke) {
  return exp::parse_run_spec("bcast:binomial:checked:sync@P=" +
                             std::string(smoke ? "4096" : "65536") + ",f=0.02" +
                             seed_key(seed) + ",exec=sim");
}

// The rt-sharded workloads run w=2: the calling thread also works every
// epoch, and w=4 oversubscribed a 4-vCPU host, slower and noisier (README.md,
// "Choices made in ct_bench"). rt-checked-chaos runs P=1024 because at 2048
// its peak RSS split into two modes by seed.
exp::RunSpec rt_bcast_spec(std::uint64_t seed, bool smoke) {
  return exp::parse_run_spec("bcast:binomial:opportunistic:4:overlapped@P=" +
                             std::string(smoke ? "1024,warmup=10" : "16384,warmup=100") +
                             seed_key(seed) + ",exec=rt-sharded:w=2");
}

exp::RunSpec rt_stream_spec(std::uint64_t seed, bool smoke) {
  return exp::parse_run_spec("bcast:binomial:opportunistic:4:overlapped@P=" +
                             std::string(smoke ? "1024,warmup=10" : "4096,warmup=100") +
                             seed_key(seed) + ",window=8,rate=400,exec=rt-sharded:w=2");
}

exp::RunSpec rt_checked_chaos_spec(std::uint64_t seed, bool smoke) {
  return exp::parse_run_spec("bcast:binomial:checked:overlapped@P=" +
                             std::string(smoke ? "256" : "1024") + chaos_key(seed) +
                             ",crash-frac=0.02,drop-prob=0.01,repair=1,revive-frac=1," +
                             std::string(smoke ? "revive-after-us=2000,warmup=6"
                                               : "revive-after-us=20000,warmup=30") +
                             seed_key(seed) +
                             ",exec=rt-sharded:w=2");
}

exp::RunSpec udp_lossy_spec(std::uint64_t seed, bool smoke) {
  return exp::parse_run_spec("bcast:binomial:opportunistic:4:overlapped@P=" +
                             std::string(smoke ? "512" : "4096") + chaos_key(seed) +
                             ",drop-prob=0.01,warmup=" + std::string(smoke ? "10" : "100") +
                             seed_key(seed) + ",exec=rt-udp:procs=4");
}

}  // namespace

int load_width() {
  return std::clamp(static_cast<int>(std::thread::hardware_concurrency()), 1, 4);
}

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> list = {
      {"sim-sweep",
       "Monte-Carlo sim sweep at paper scale; event queue, dispatch and handlers, no rt code",
       sim_sweep_spec, run_sim_sweep},
      {"rt-bcast",
       "closed-loop one-shot MPI_Bcast loop (paper 4.4) on the sharded runtime; no correction probes",
       rt_bcast_spec, run_rt_bcast},
      {"rt-stream",
       "open-loop stream at ~half capacity through run_stream window slots; sojourn latency",
       rt_stream_spec, run_rt_stream},
      {"rt-checked-chaos",
       "checked correction under crashes, drops, survivor-tree repair and rejoin; the probe storm",
       rt_checked_chaos_spec, run_rt_checked_chaos},
      {"udp-lossy",
       "forked processes over loopback UDP with 1% drops; perfect-links retransmission",
       udp_lossy_spec, run_udp_lossy},
  };
  return list;
}

}  // namespace ctbench
