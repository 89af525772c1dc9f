// Perf-trajectory reporter: measures the simulator and runtime hot paths
// end to end and emits a machine-readable BENCH_*.json (events/sec,
// reps/sec, epoch latency, peak RSS) so successive PRs can be compared
// number against number. See EXPERIMENTS.md ("Engine throughput reports").
//
// Every sweep / rt / rt_chaos cell is one exp::RunSpec (DESIGN.md §4e): a
// registry of spec strings is built up front, each cell runs through the
// one exp::run dispatcher, and its RunRecord is emitted verbatim — the
// "spec" key of any JSON row reproduces that exact cell via
// `ct_sim --spec` (on either substrate, by editing exec=). Only the
// broadcast section drives the simulator directly: it measures raw
// events/sec of the discrete-event core, which no RunSpec metric captures.
//
// Usage:
//   bench_report [--out FILE] [--smoke] [--list]
//
//   --out FILE   write the JSON report to FILE (default BENCH_report.json)
//   --smoke      one short iteration of everything — wired into ctest
//                (label bench-smoke) so the reporter cannot rot
//   --list       print `section<space>spec` for every registered RunSpec
//                (canonical form) without running anything; golden-file
//                tested so the measured matrix is reviewable in diffs
//
// CT_PROCS / CT_REPS / CT_SEED env overrides apply to the sweep section.

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "experiment/run_spec.hpp"
#include "rt/udp_engine.hpp"
#include "protocol/tree_broadcast.hpp"
#include "sim/simulator.hpp"
#include "support/json.hpp"
#include "topology/factory.hpp"

namespace {

using namespace ct;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct BroadcastResult {
  topo::Rank procs = 0;
  const char* queue = "calendar";
  int iterations = 0;
  double wall_seconds = 0.0;
  double events_per_sec = 0.0;
  double messages_per_sec = 0.0;
  std::int64_t events_per_run = 0;
  std::int64_t messages_per_run = 0;
};

/// Fault-free corrected-tree broadcast, the BM_SimulateBroadcast workload:
/// repeat until `min_seconds` of wall clock (at least `min_iters` runs).
/// Deliberately not a RunSpec cell — this times the raw discrete-event core
/// (events/sec), below the replication layer exp::run measures.
BroadcastResult measure_broadcast(topo::Rank procs, sim::QueueKind queue,
                                  double min_seconds, int min_iters) {
  const topo::Tree tree = topo::make_binomial_interleaved(procs);
  const sim::LogP params{2, 1, 1, procs};
  proto::CorrectionConfig config;
  config.kind = proto::CorrectionKind::kChecked;
  config.start = proto::CorrectionStart::kSynchronized;
  config.sync_time = proto::fault_free_dissemination_time(tree, params);
  sim::RunOptions options;
  options.queue = queue;
  sim::Workspace workspace;

  BroadcastResult out;
  out.procs = procs;
  out.queue = queue == sim::QueueKind::kCalendar ? "calendar" : "binary-heap";
  std::int64_t events = 0;
  std::int64_t messages = 0;
  const auto start = Clock::now();
  while (out.iterations < min_iters || seconds_since(start) < min_seconds) {
    proto::CorrectedTreeBroadcast protocol(tree, config);
    sim::Simulator simulator(params, sim::FaultSet::none(procs));
    const sim::RunResult result = simulator.run(protocol, options, workspace);
    events += result.events_processed;
    messages += result.total_messages;
    ++out.iterations;
  }
  out.wall_seconds = seconds_since(start);
  out.events_per_sec = static_cast<double>(events) / out.wall_seconds;
  out.messages_per_sec = static_cast<double>(messages) / out.wall_seconds;
  out.events_per_run = events / out.iterations;
  out.messages_per_run = messages / out.iterations;
  return out;
}

/// One named report section: an ordered list of RunSpec cells.
struct SpecSection {
  const char* name;
  std::vector<std::string> specs;
};

/// The data-driven measurement registry. Everything the report runs through
/// exp::run is declared here as spec strings — `--list` prints exactly this.
std::vector<SpecSection> spec_sections(bool smoke) {
  const auto n = [](auto v) { return std::to_string(v); };

  // Sweep throughput matrix: the Monte-Carlo path behind every figure
  // (run_replicated over corrected-tree scenarios, per-worker ReplicaPlans
  // engaged), {base P, 8x P} x {fault-free, 2% faults}. The large size runs
  // an eighth of the replications (events scale ~linearly in P, so every
  // cell costs about the same wall clock). Smoke keeps only the base size.
  const exp::Scale scale = exp::default_scale(smoke ? 256 : 8192, smoke ? 4 : 1000);
  SpecSection sweep{"sweep_matrix", {}};
  const std::vector<topo::Rank> sweep_sizes =
      smoke ? std::vector<topo::Rank>{scale.procs}
            : std::vector<topo::Rank>{scale.procs, scale.procs * 8};
  for (topo::Rank procs : sweep_sizes) {
    const std::size_t reps =
        procs == scale.procs ? scale.reps : std::max<std::size_t>(1, scale.reps / 8);
    for (const char* f : {"", ",f=0.02"}) {
      sweep.specs.push_back("bcast:binomial:checked:sync@P=" + n(procs) + f +
                            ",reps=" + n(reps) + ",seed=" + n(scale.seed) +
                            ",exec=sim");
    }
  }

  // Runtime scaling table (DESIGN.md §4c): the sharded M:N executor across
  // the §4.4 rank ladder up to the paper's 36 864 ranks (optimized
  // overlapped opportunistic, d = 4 — the prototype setup) and the 2 %
  // failed variant (gap-safe placement: both directions, d = 4 → gaps up
  // to 8). Smoke shrinks the ladder to one small row.
  const char* rt_head = "bcast:binomial:opportunistic:4:overlapped@P=";
  SpecSection rt{"rt", {}};
  if (smoke) {
    rt.specs.push_back(std::string(rt_head) +
                       "256,reps=3,warmup=1,deadline-ms=10000,exec=rt-sharded");
  } else {
    for (topo::Rank procs : {1024, 4096, 16384, 36864}) {
      rt.specs.push_back(rt_head + n(procs) +
                         ",reps=9,deadline-ms=30000,exec=rt-sharded");
    }
    rt.specs.push_back(std::string(rt_head) +
                       "36864,f=0.02,gap=8,reps=5,warmup=1,deadline-ms=30000,"
                       "exec=rt-sharded");
    // Oversubscribed rows (DESIGN.md §4f): the worker count forced past the
    // host's cores, so cross-shard delivery and scheduler idle cost — not
    // protocol work — dominate. The spec parses under older binaries too,
    // so these cells interleave for A/B (recipe in EXPERIMENTS.md).
    for (topo::Rank procs : {16384, 36864}) {
      rt.specs.push_back(rt_head + n(procs) +
                         ",reps=7,warmup=1,deadline-ms=30000,exec=rt-sharded:w=8");
    }
    // Timer-driven oversubscribed row: delayed correction under 2 % static
    // faults. Between timer firings only a handful of ranks are runnable,
    // so this cell isolates scheduler idle cost — full-slice sweeps versus
    // the active set + doorbell park. It is also where executor timing
    // fidelity shows: a sluggish scheduler fires the probe timers late and
    // silently skips probe rounds (see the messages/process caveat in
    // EXPERIMENTS.md, BENCH_PR6).
    rt.specs.push_back(
        "bcast:binomial:delayed:overlapped@P=36864,f=0.02,gap=8,reps=5,"
        "warmup=1,deadline-ms=30000,exec=rt-sharded:w=8");
  }

  // Chaos matrix (DESIGN.md §4d): {1 Ki, 16 Ki} ranks x {no chaos, 2 %
  // mid-epoch crashes, 2 % crashes + 1 % drops}, checked correction (the
  // recovery-guaranteed algorithm). All live-rank loss is mid-epoch — no
  // statically failed ranks — so the no-chaos cell doubles as the
  // injection-hooks-compile-to-no-ops regression guard. Smoke keeps a
  // single small crash+drop cell.
  SpecSection chaos{"rt_chaos", {}};
  const std::string chaos_seed = ",chaos-seed=" + n(std::uint64_t{0x5eed5eed});
  const std::string run_scale = ",reps=9,warmup=2,deadline-ms=2000,exec=rt-sharded";
  if (smoke) {
    chaos.specs.push_back("bcast:binomial:checked:overlapped@P=256" + chaos_seed +
                          ",crash-frac=0.02,drop-prob=0.01,reps=9,warmup=1,"
                          "deadline-ms=2000,exec=rt-sharded");
  } else {
    // One scale for both sizes and for the recovery matrix below. Measured
    // p99 over 9 reps on the 4-vCPU host: <= 1.7 ms at 1 Ki, 12 ms at 16 Ki,
    // 97 ms at 16 Ki with crashes + drops (dropped probes make walks). The
    // 2 s deadline is >= 20x every p99, so a cell that regresses shows up as
    // timeouts instead of stretching the report.
    for (topo::Rank procs : {1024, 16384}) {
      const std::string head = "bcast:binomial:checked:overlapped@P=" + n(procs);
      chaos.specs.push_back(head + run_scale);
      chaos.specs.push_back(head + chaos_seed + ",crash-frac=0.02" + run_scale);
      chaos.specs.push_back(head + chaos_seed +
                            ",crash-frac=0.02,drop-prob=0.01" + run_scale);
    }
  }

  // Streaming ladder (PR8 tentpole): pipelined epochs through the sharded
  // executor's window slots. The open-loop pair offers the same saturating
  // arrival rate at W = 1 and W = 8 — the pipelining A/B (deliveries/s,
  // p99 sojourn) — and the headline cell streams a 64 KiB payload in 4 KiB
  // chunks (16 pipelined chunks per epoch) through a W = 8 closed loop.
  // Smoke keeps one small open-loop cell (also the stream_smoke ctest).
  SpecSection stream{"rt_stream", {}};
  if (smoke) {
    stream.specs.push_back(std::string(rt_head) +
                           "256,reps=8,window=4,rate=200,deadline-ms=10000,"
                           "exec=rt-sharded");
  } else {
    for (const char* window : {"1", "8"}) {
      stream.specs.push_back(rt_head + n(16384) + ",reps=24,deadline-ms=30000,window=" +
                             window + ",rate=1000,exec=rt-sharded");
    }
    stream.specs.push_back(rt_head + n(16384) +
                           ",bytes=65536,reps=24,deadline-ms=30000,window=8,"
                           "chunk=4096,exec=rt-sharded");
  }

  // Simulator twin of the streaming ladder (proto::StreamMux): a closed-loop
  // window, the chunked cell with a real per-byte gap G (the LogGP axis that
  // only matters once payloads are chunked), and an open-loop cell at a
  // model-time rate (1 tick ≙ 1 µs). Latencies are per-epoch sojourn ticks.
  const char* sim_head = "bcast:binomial:opportunistic:4:overlapped@P=";
  SpecSection sim_stream{"sim_stream", {}};
  if (smoke) {
    sim_stream.specs.push_back(std::string(sim_head) + "256,reps=8,window=4,exec=sim");
  } else {
    sim_stream.specs.push_back(std::string(sim_head) + "8192,reps=64,window=8,exec=sim");
    sim_stream.specs.push_back(std::string(sim_head) +
                               "8192,G=1,bytes=65536,reps=32,window=8,chunk=4096,"
                               "exec=sim");
    sim_stream.specs.push_back(std::string(sim_head) +
                               "8192,reps=64,window=8,rate=5000,exec=sim");
  }

  // Recovery matrix (PR9 tentpole): persistent 2 % crashes under repair=1 —
  // every epoch boundary rebuilds the tree over the survivors — alone and
  // with an immediate-revive schedule (revive-frac=1), checked correction.
  // The headline number per cell is epochs_to_converge (the k of the
  // "k epochs after the last fault" acceptance bound) in the appended
  // recovery keys of each JSON row; see EXPERIMENTS.md, BENCH_PR9.
  SpecSection recovery{"rt_recovery", {}};
  if (smoke) {
    recovery.specs.push_back("bcast:binomial:checked:overlapped@P=256" + chaos_seed +
                             ",crash-frac=0.02,repair=1,revive-frac=1,reps=9,"
                             "warmup=1,deadline-ms=2000,exec=rt-sharded");
  } else {
    // Measured p99 over 9 reps: <= 0.7 ms at 1 Ki, 6.0 ms at 16 Ki.
    for (topo::Rank procs : {1024, 16384}) {
      const std::string head = "bcast:binomial:checked:overlapped@P=" + n(procs) +
                               chaos_seed + ",crash-frac=0.02,repair=1";
      recovery.specs.push_back(head + run_scale);
      recovery.specs.push_back(head + ",revive-frac=1" + run_scale);
    }
  }

  // UDP matrix (PR10 tentpole): the multi-process executor over loopback
  // perfect links, {256, 1 Ki} ranks x {clean, 2% mid-epoch crashes},
  // checked correction. Each JSON row carries the appended retransmits /
  // dup_drops tallies — the clean cell's retransmit count is the loopback-
  // jitter gauge EXPERIMENTS.md discusses (spurious retransmits are benign
  // but track scheduler pressure). Kept LAST in the section list: rt-udp
  // forks worker processes, so main() runs these cells before the shared
  // ThreadPool spawns its threads. Smoke keeps one tiny crash cell.
  SpecSection udp{"rt_udp", {}};
  if (smoke) {
    udp.specs.push_back("bcast:binomial:checked:overlapped@P=64" + chaos_seed +
                        ",crash-frac=0.02,reps=9,warmup=1,deadline-ms=10000,"
                        "exec=rt-udp:procs=2");
  } else {
    // Measured p99 over 9 reps: <= 0.28 ms at 256, 0.59 ms at 1 Ki. The
    // deadline leaves room for 2 ms first retransmits on a busy host.
    const std::string udp_scale = ",reps=9,warmup=1,deadline-ms=2000,exec=rt-udp:procs=4";
    for (topo::Rank procs : {256, 1024}) {
      const std::string head = "bcast:binomial:checked:overlapped@P=" + n(procs);
      udp.specs.push_back(head + udp_scale);
      udp.specs.push_back(head + chaos_seed + ",crash-frac=0.02" + udp_scale);
    }
  }

  return {sweep, rt, chaos, stream, sim_stream, recovery, udp};
}

double peak_rss_mb() {
  struct rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // linux: KiB
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_report.json";
  std::string filter;
  bool smoke = false;
  bool list = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--list") == 0) {
      list = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strncmp(argv[i], "--filter=", 9) == 0) {
      filter = argv[i] + 9;
    } else {
      std::fprintf(stderr,
                   "usage: bench_report [--out FILE] [--smoke] [--list] "
                   "[--filter=SUBSTRING]\n");
      return 2;
    }
  }

  const std::vector<SpecSection> sections = spec_sections(smoke);

  if (list) {
    // Canonical form (parse -> to_string): validates every registered spec
    // and keeps the golden file stable against cosmetic registry edits.
    for (const SpecSection& section : sections) {
      for (const std::string& text : section.specs) {
        std::printf("%s %s\n", section.name,
                    exp::parse_run_spec(text).to_string().c_str());
      }
    }
    return 0;
  }

  // --filter=SUBSTRING runs the subset of registered cells whose --list
  // line ("<section> <canonical spec>") contains the substring — the knob
  // that makes interleaved A/B against an older binary practical (run one
  // cell, alternate binaries, repeat; see EXPERIMENTS.md). The list output
  // and the full-run JSON layout are unchanged; compat objects whose source
  // cell is filtered away are simply omitted.
  const auto matches = [&](const char* section, const exp::RunSpec& spec) {
    if (filter.empty()) return true;
    return (std::string(section) + " " + spec.to_string()).find(filter) !=
           std::string::npos;
  };

  const double min_seconds = smoke ? 0.0 : 2.0;
  const int min_iters = smoke ? 1 : 3;
  std::vector<BroadcastResult> broadcasts;
  if (filter.empty()) {
    const std::vector<topo::Rank> sizes =
        smoke ? std::vector<topo::Rank>{256}
              : std::vector<topo::Rank>{1024, 8192, 65536};
    for (topo::Rank procs : sizes) {
      broadcasts.push_back(
          measure_broadcast(procs, sim::QueueKind::kCalendar, min_seconds, min_iters));
    }
    // Fallback-queue comparison at the largest size (A/B on identical runs).
    broadcasts.push_back(measure_broadcast(sizes.back(), sim::QueueKind::kBinaryHeap,
                                           min_seconds, min_iters));
  }

  // Run every registered cell through the one dispatcher, keeping the
  // parsed spec next to its record (the compat objects below need axes like
  // fault_fraction that the JSON row only carries inside the spec string).
  struct Cell {
    exp::RunSpec spec;
    exp::RunRecord record;
  };
  std::vector<std::vector<Cell>> results(sections.size());

  // The rt_udp section (always last) forks one worker process per rank
  // slice, so it must run before the shared ThreadPool spawns its threads.
  // Sandboxes without loopback sockets skip it with a note; the section's
  // JSON array is then empty (the same clean-skip convention as
  // rt_udp_test).
  const std::size_t udp_section = sections.size() - 1;
  std::string udp_unavailable;
  if (rt::udp_loopback_available(udp_unavailable)) {
    for (const std::string& text : sections[udp_section].specs) {
      const exp::RunSpec spec = exp::parse_run_spec(text);
      if (!matches(sections[udp_section].name, spec)) continue;
      results[udp_section].push_back(Cell{spec, exp::run(spec)});
    }
  } else {
    std::fprintf(stderr, "bench_report: skipping rt_udp cells (%s)\n",
                 udp_unavailable.c_str());
  }

  const support::ThreadPool pool;  // hardware concurrency, shared by sim cells
  for (std::size_t s = 0; s < udp_section; ++s) {
    for (const std::string& text : sections[s].specs) {
      const exp::RunSpec spec = exp::parse_run_spec(text);
      if (!matches(sections[s].name, spec)) continue;
      results[s].push_back(Cell{spec, exp::run(spec, &pool)});
    }
  }
  const std::vector<Cell>& sweeps = results[0];

  // Legacy headline cell (base P, 2% faults): kept as the top-level "sweep"
  // object so cross-PR comparisons and the bench-smoke check keep working.
  // Under --filter the cell may not have run; the object is then omitted.
  const Cell* sweep = sweeps.size() > 1 ? &sweeps[1] : nullptr;
  const double sweep_reps_per_sec =
      sweep && sweep->record.wall_seconds > 0.0
          ? static_cast<double>(sweep->record.runs) / sweep->record.wall_seconds
          : 0.0;

  // Streaming A/B: the open-loop rt_stream pair (same offered rate, same
  // rank count, unchunked) at W = 1 vs W = 8.
  const std::vector<Cell>& stream_rows = results[3];
  const Cell* stream_w1 = nullptr;
  const Cell* stream_w8 = nullptr;
  for (const Cell& row : stream_rows) {
    if (row.spec.rate <= 0.0 || row.spec.chunk > 0) continue;
    if (row.spec.window == 1) stream_w1 = &row;
    if (row.spec.window == 8) stream_w8 = &row;
  }
  const double stream_speedup =
      stream_w1 && stream_w8 && stream_w1->record.deliveries_per_sec > 0.0
          ? stream_w8->record.deliveries_per_sec / stream_w1->record.deliveries_per_sec
          : 0.0;

  support::JsonWriter w;
  w.begin_object()
      .field("generated_by", "tools/bench_report")
      .field("smoke", smoke);
  w.key("broadcast").begin_array();
  for (const BroadcastResult& b : broadcasts) {
    w.begin_object()
        .field("procs", static_cast<std::int64_t>(b.procs))
        .field("queue", b.queue)
        .field("iterations", b.iterations)
        .field("wall_seconds", b.wall_seconds, 3)
        .field("events_per_sec", b.events_per_sec, 0)
        .field("messages_per_sec", b.messages_per_sec, 0)
        .field("events_per_run", b.events_per_run)
        .field("messages_per_run", b.messages_per_run)
        .end_object();
  }
  w.end_array();
  for (std::size_t s = 0; s < sections.size(); ++s) {
    w.key(sections[s].name).begin_array();
    for (const Cell& cell : results[s]) cell.record.write_json(w);
    w.end_array();
  }
  if (sweep) {
    w.key("sweep")
        .begin_object()
        .field("procs", static_cast<std::int64_t>(sweep->record.procs))
        .field("reps", sweep->record.runs)
        .field("seed", sweep->spec.seed)
        .field("fault_fraction", sweep->spec.faults.fraction, 3)
        .field("pool_workers", sweep->record.workers)
        .field("wall_seconds", sweep->record.wall_seconds, 3)
        .field("reps_per_sec", sweep_reps_per_sec, 3)
        .field("mean_quiescence", sweep->record.aggregate.quiescence_latency.mean(), 4)
        .end_object();
  }
  if (stream_w1 && stream_w8) {
    w.key("rt_stream_ab")
        .begin_object()
        .field("procs", static_cast<std::int64_t>(stream_w8->record.procs))
        .field("offered_rate", stream_w8->record.offered_rate, 1)
        .field("w1_deliveries_per_sec", stream_w1->record.deliveries_per_sec, 0)
        .field("w8_deliveries_per_sec", stream_w8->record.deliveries_per_sec, 0)
        .field("w1_p99_sojourn_us", stream_w1->record.latency_p99, 1)
        .field("w8_p99_sojourn_us", stream_w8->record.latency_p99, 1)
        .field("speedup", stream_speedup, 2)
        .end_object();
  }
  w.field("peak_rss_mb", peak_rss_mb(), 1).end_object();

  if (!w.write_file(out_path)) {
    std::fprintf(stderr, "bench_report: cannot write %s\n", out_path.c_str());
    return 1;
  }

  std::printf(
      "bench_report: wrote %s (sweep %.1f reps/s, stream W8/W1: %.2fx, "
      "peak RSS %.1f MB)\n",
      out_path.c_str(), sweep_reps_per_sec, stream_speedup, peak_rss_mb());
  if (!filter.empty()) {
    std::size_t cells = 0;
    for (const std::vector<Cell>& section : results) cells += section.size();
    std::printf("bench_report: --filter=%s matched %zu cell(s)\n", filter.c_str(),
                cells);
  }
  return 0;
}
