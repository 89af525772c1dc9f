#pragma once
// Executor-agnostic run specification — exp::Scenario v2 (DESIGN.md §4e).
//
// The paper evaluates identical corrected-broadcast configurations twice:
// in the LogP simulator (§4.2–§4.3) and on the MPI prototype (§4.4). A
// RunSpec is the single declarative description of one such configuration —
// collective x protocol x tree x correction x fault/chaos model x LogP
// params x executor — with a full string round-trip, so every CLI, bench
// table and parity test shares one parser and one dispatcher:
//
//   bcast:binomial:checked:overlapped@P=1024,f=0.02,exec=rt-sharded:w=8
//   ^        ^        ^        ^        key=value parameters (any order)
//   |        |        |        +-- correction start (":left" = single dir)
//   |        |        +-- correction kind (":<d>" distance for opportunistic)
//   |        +-- tree family (topo::parse_tree_spec, e.g. "kary:4")
//   +-- collective: bcast | reduce | allreduce
//
// The same spec runs unmodified under exec=sim (replicated LogP simulation
// through the ReplicaPlan path), exec=rt-sharded (wall-clock epochs on
// rt::Engine + measure_broadcast), and exec=rt-udp (forked OS
// processes exchanging real loopback datagrams under the perfect-links
// layer, DESIGN.md §4j); exp::run returns one RunRecord with the identical
// metric key set either way (latency_unit tells model ticks from
// microseconds; chaos tallies are zero under sim).

#include <cstdint>
#include <string>
#include <vector>

#include "experiment/runner.hpp"
#include "support/json.hpp"

namespace ct::exp {

enum class Collective {
  kBroadcast,  ///< root disseminates one value (the paper's §3 protocols)
  kReduce,     ///< corrected reduction to the root (§1 extension; sim only)
  kAllreduce,  ///< reduce + result broadcast (every survivor colored)
};

/// Which substrate executes the spec.
enum class Executor {
  kSim,             ///< LogP discrete-event simulator, `reps` replications
  kRtSharded,       ///< rt::Engine M:N sharded executor, `reps` epochs
  kRtUdp,           ///< forked processes over loopback UDP perfect links
};

std::string collective_name(Collective c);
Collective parse_collective(const std::string& text);
std::string executor_name(Executor e);

/// Unified fault model: the static pre-start failures both substrates share
/// (sim::FaultSet sampling / rt::Engine's failed vector) plus the mid-run
/// knobs (sim::FaultSet::dies_at ≙ rt::ChaosPlan). Link perturbations are
/// runtime-only; their tallies read zero under sim.
struct FaultModel {
  // --- static pre-start failures (count wins over fraction) ---
  topo::Rank count = 0;
  double fraction = 0.0;
  /// > 0: resample the static placement until the statically-uncolored
  /// set's largest ring gap is <= gap_limit (rt executors; the fig12 /
  /// bench_report "gap-safe" trick so coverage-bounded correction can
  /// finish every epoch). Sim samples per replication and simply reports
  /// uncolored survivors, so the limit is not applied there.
  int gap_limit = 0;
  /// Ranks killed "at time zero but after start": sim kills them at t = 1
  /// (before any first receive completes), rt via ChaosPlan::kill_at_ns 0.
  /// The parity model — both substrates realise the identical victim set.
  std::vector<topo::Rank> kill;

  // --- chaos knobs (rt::ChaosOptions; sim maps crashes, ignores links) ---
  std::uint64_t chaos_seed = 0;
  double crash_fraction = 0.0;
  std::int64_t crash_window_us = 2000;
  double drop_prob = 0.0;
  double delay_prob = 0.0;
  double duplicate_prob = 0.0;
  std::int64_t delay_us = 200;

  // --- self-healing membership (PR9; rt executors only) ---
  /// repair=1: crashes become persistent and the run repairs itself at
  /// every epoch boundary — one-shot runs rebuild the tree over survivors
  /// (rt::measure_recovery), streams retire corpses at admission.
  bool repair = false;
  /// revive-frac=p: probability a crashed rank gets a deterministic
  /// revive schedule (ChaosPlan::revive_after_ns; same SplitMix64 contract
  /// as the crash schedule). Requires repair=1 and a crash source.
  double revive_fraction = 0.0;
  /// revive-after-us=d: fixed outage length before a scheduled revival.
  std::int64_t revive_after_us = 0;

  bool chaos_enabled() const noexcept {
    return crash_fraction > 0.0 || drop_prob > 0.0 || delay_prob > 0.0 ||
           duplicate_prob > 0.0 || !kill.empty();
  }
  bool operator==(const FaultModel&) const = default;
};

/// One executor-agnostic experiment cell. Field defaults are the canonical
/// spec-string defaults: to_string() omits any field at its default, and
/// parse_run_spec() restores exactly these values for omitted keys.
struct RunSpec {
  Collective collective = Collective::kBroadcast;
  ProtocolKind protocol = ProtocolKind::kCorrectedTree;
  topo::TreeSpec tree{};
  proto::CorrectionConfig correction{};
  sim::LogP params{};  ///< P required; also the reduce/allreduce timetable
  FaultModel faults{};
  Executor executor = Executor::kSim;

  /// Gossip budget (protocol == kGossip): rounds when > 0, else time.
  std::int64_t gossip_rounds = 0;
  sim::Time gossip_time = 40;

  /// Ring replication distance of the reduce/allreduce gather phase.
  int reduce_distance = 1;

  // --- run scale ---
  std::int64_t reps = 20;    ///< sim replications / rt measured epochs
  std::int64_t warmup = 2;   ///< rt warmup epochs (sim: unused)
  std::uint64_t seed = 0x5eed5eed;
  int workers = 0;           ///< rt-sharded shard count; 0 = hardware
  std::int64_t deadline_ms = 0;  ///< rt epoch deadline+timeout; 0 = 10 s timeout

  // --- streaming axes (PR8). window > 1 or rate > 0 turns the run into one
  // *stream* of `reps` pipelined epochs instead of `reps` isolated epochs:
  // rt-sharded via Engine::run_stream, sim via proto::StreamMux multiplexing
  // per-epoch protocol instances on one event queue. chunk > 0 additionally
  // splits the `bytes` payload into ceil(bytes/chunk) pipelined chunks per
  // epoch (tree/ack broadcasts; sim prices each message at `chunk` bytes).
  std::int64_t window = 1;  ///< epochs concurrently in flight, [1, 64]
  double rate = 0.0;  ///< open-loop offered epochs/s (sim: model-time, 1 tick ≙ 1 µs)
  std::int64_t chunk = 0;  ///< chunk size in bytes; 0 = unchunked

  // --- rt-sharded executor knobs (exec=rt-sharded:w=8:mesh-cap=N). The
  // engine-default capacity is canonical: to_string() omits it.
  std::int64_t rt_mesh_capacity = 0;  ///< ':mesh-cap=N' per-pair ring; 0 = default

  // --- rt-udp executor knobs (exec=rt-udp[:port-base=N][:procs=N]). The
  // defaults (kernel-assigned ports, engine-default process count) are
  // canonical: to_string() omits them.
  std::int64_t rt_port_base = 0;  ///< ':port-base=N' first loopback port; 0 = kernel
  std::int64_t rt_procs = 0;      ///< ':procs=N' worker processes; 0 = default

  /// Whether this spec runs as a pipelined stream (the PR8 tentpole).
  bool streaming() const noexcept { return window > 1 || rate > 0.0; }
  /// Pipelined chunks per epoch: ceil(bytes / chunk); 1 when unchunked.
  std::int64_t chunk_count() const noexcept {
    return chunk > 0 ? (params.bytes + chunk - 1) / chunk : 1;
  }

  /// Canonical spec string; parse_run_spec(to_string()) == *this.
  std::string to_string() const;

  /// The sim-side Scenario this spec describes (broadcast collectives).
  Scenario to_scenario() const;

  /// Throws std::invalid_argument for inconsistent axes (P missing, kill
  /// list hitting the root, reduce on a runtime executor, ...). run() and
  /// parse_run_spec() both validate.
  void validate() const;

  bool operator==(const RunSpec&) const = default;
};

/// Inverse of RunSpec::to_string(); accepts keys in any order plus a few
/// input conveniences ("2%" fractions, "sync" aliases). Throws
/// std::invalid_argument with a message naming the offending token.
RunSpec parse_run_spec(const std::string& text);

/// Parses one exec= token — "sim", "rt-sharded[:w=N][:mesh-cap=N]",
/// "rt-udp[:port-base=N][:procs=N]" — into spec.executor and the rt knobs.
/// The shared executor-name table for CLIs taking the executor as its own
/// flag. Throws std::invalid_argument on unknown names or options, and
/// names the removal for the retired thread-per-rank executor
/// ("rt-tpr", "rt-thread-per-rank") and the ':inbox'/':pin' options.
void parse_executor(const std::string& text, RunSpec& spec);

/// Outcome of one RunSpec execution. One struct for both substrates;
/// write_json() emits the identical key set regardless of executor so
/// bench tables can A/B sim against rt cell by cell.
struct RunRecord {
  std::string spec;       ///< canonical spec string of the run
  std::string executor;   ///< executor_name() of the substrate used
  topo::Rank procs = 0;
  std::int64_t workers = 0;  ///< pool workers (sim) / engine threads (rt)
  std::int64_t runs = 0;     ///< measured replications / epochs
  double wall_seconds = 0.0; ///< measured loop only (detail run excluded)

  /// Latency distribution over clean runs. Units differ by substrate —
  /// sim reports LogP model ticks (quiescence latency), rt wall-clock
  /// microseconds (epoch completion) — and latency_unit says which.
  std::string latency_unit;  ///< "ticks" | "us"
  double latency_p50 = 0.0;
  double latency_p99 = 0.0;
  double latency_mean = 0.0;

  double messages_per_process = 0.0;
  double messages_per_sec = 0.0;  ///< delivered sends / wall_seconds
  std::int64_t incomplete = 0;    ///< runs leaving live survivors uncolored
  std::int64_t timeouts = 0;      ///< rt epochs hitting deadline (sim: 0)

  // --- streaming metrics (zero for one-shot runs except latency_p999) ---
  double latency_p999 = 0.0;        ///< tail of the same distribution as p50/p99
  double offered_rate = 0.0;        ///< RunSpec::rate (0 = closed loop)
  double achieved_rate = 0.0;       ///< retired epochs/s (sim: model-time)
  double deliveries_per_sec = 0.0;  ///< colored live ranks/s across the stream

  // --- chaos tallies (all zero under sim except ranks_crashed) ---
  std::int64_t epochs_degraded = 0;
  std::int64_t ranks_crashed = 0;
  std::int64_t messages_dropped = 0;
  std::int64_t messages_delayed = 0;
  std::int64_t messages_duplicated = 0;

  // --- recovery tallies (repair=1 runs only; zeros otherwise). JSON keys
  // are appended at the END of write_json so positional bench tooling
  // written against older records keeps working. ---
  std::int64_t repairs = 0;
  std::int64_t rejoins = 0;
  std::int64_t replayed_epochs = 0;
  std::int64_t state_transfers = 0;
  std::int64_t epochs_to_converge = 0;

  // --- transport tallies (exec=rt-udp only; zeros on in-process
  // executors). Same append-only JSON contract as the blocks above. ---
  std::int64_t retransmits = 0;  ///< perfect-links datagram retransmissions
  std::int64_t dup_drops = 0;    ///< duplicate datagrams dropped by dedup

  /// Per-rank detail of the *first* measured run (rep 0 / first epoch):
  /// realised mid-run deaths and survivors never colored, both ascending.
  /// The spec-driven sim/rt parity tests compare exactly these.
  std::vector<topo::Rank> crashed_ranks;
  std::vector<topo::Rank> uncolored_survivors;

  /// Sim-only rich aggregate (percentile tables for ct_sim); empty under rt.
  Aggregate aggregate;

  /// Emits this record as a JSON object with a fixed, substrate-independent
  /// key order.
  void write_json(support::JsonWriter& w) const;
};

/// Executes `spec` on the substrate it names and aggregates the result.
/// Deterministic per (spec, pool-independent) on sim; rt runs are wall
/// clock. `pool` parallelises sim replications (ignored by rt executors).
RunRecord run(const RunSpec& spec, const support::ThreadPool* pool = nullptr);

}  // namespace ct::exp
