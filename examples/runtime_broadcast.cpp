// Runtime broadcast: the same protocol objects the simulator analyses,
// executed in wall-clock time by the sharded M:N runtime (the repo's
// stand-in for the paper's MPI prototype, §4.4 — scales to the paper's
// 36 864 ranks). Every run is one exp::RunSpec cell (DESIGN.md §4e): pass
// the spec string directly, or build one from the classic flags. The
// canonical spec of the run is echoed so any invocation can be reproduced
// with --spec (or under exec=sim, unchanged).
//
//   $ ./runtime_broadcast \
//       "bcast:binomial:checked:overlapped@P=1024,f=2%,exec=rt-sharded:w=8"
//   $ ./runtime_broadcast --procs 36864 --faults 700 --iterations 10
//   $ ./runtime_broadcast --procs 4096 --workers 2    # pin the shard count
//   $ ./runtime_broadcast \
//       "bcast:binomial:checked:overlapped@P=256,exec=rt-udp:procs=8"
//                        # forked processes over loopback UDP perfect links
//
// Chaos soaks (DESIGN.md §4d) — deterministic mid-epoch crashes, drops,
// delays and duplicates; the run always terminates by --deadline-ms and
// degraded runs end with a printed degradation report, never a hang:
//
//   $ ./runtime_broadcast --procs 512 --iterations 200 --correction=checked
//       --chaos-seed 7 --crash-frac 0.02 --drop-prob 0.01 --delay-prob 0.01
//
// Self-healing soaks (PR9): --repair makes crashes persistent and repairs
// the membership at every epoch boundary (tree rebuilt over survivors);
// --revive-frac / --revive-after-us schedule deterministic revivals so
// crashed ranks rejoin at a later boundary:
//
//   $ ./runtime_broadcast --procs 512 --iterations 200 --correction=checked
//       --crash-frac 0.02 --repair --revive-frac 1 --revive-after-us 2000

#include <iostream>
#include <string>

#include "experiment/run_spec.hpp"
#include "support/options.hpp"

namespace {

void print_ranks(const std::vector<ct::topo::Rank>& ranks) {
  std::cout << '[';
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    if (i) std::cout << ' ';
    if (i == 16) {
      std::cout << "...";
      break;
    }
    std::cout << ranks[i];
  }
  std::cout << ']';
}

/// RunSpec from the classic flag set — every axis goes through the shared
/// parsers (proto::parse_correction_kind & friends via exp::parse_run_spec);
/// this binary owns no name tables of its own.
ct::exp::RunSpec spec_from_flags(const ct::support::Options& options) {
  using ct::exp::RunSpec;
  RunSpec spec;
  spec.params.P = static_cast<ct::topo::Rank>(options.get_int("procs", 32));
  spec.tree = ct::topo::parse_tree_spec(options.get_string("tree", "binomial"));
  spec.correction.kind =
      ct::proto::parse_correction_kind(options.get_string("correction", "opportunistic"));
  spec.correction.start =
      ct::proto::parse_correction_start(options.get_string("start", "overlapped"));
  spec.correction.distance = static_cast<int>(options.get_int("distance", 4));
  spec.faults.count = static_cast<ct::topo::Rank>(options.get_int("faults", 3));
  spec.reps = options.get_int("iterations", 10);
  spec.warmup = 2;
  spec.seed = static_cast<std::uint64_t>(options.get_int("seed", 11));
  spec.workers = static_cast<int>(options.get_int("workers", 0));
  spec.executor = ct::exp::Executor::kRtSharded;
  spec.faults.chaos_seed = static_cast<std::uint64_t>(options.get_int("chaos-seed", 0));
  spec.faults.crash_fraction = options.get_double("crash-frac", 0.0);
  spec.faults.drop_prob = options.get_double("drop-prob", 0.0);
  spec.faults.delay_prob = options.get_double("delay-prob", 0.0);
  spec.faults.duplicate_prob = options.get_double("dup-prob", 0.0);
  spec.faults.delay_us = options.get_int("delay-us", 200);
  spec.faults.crash_window_us = options.get_int("crash-window-us", 2000);
  spec.faults.repair = options.get_flag("repair");
  spec.faults.revive_fraction = options.get_double("revive-frac", 0.0);
  spec.faults.revive_after_us = options.get_int("revive-after-us", 0);
  spec.deadline_ms = options.get_int("deadline-ms", 0);
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ct;
  const support::Options options(argc, argv);

  exp::RunSpec spec;
  try {
    // --spec=STRING or a positional spec string (--spec STRING would leave
    // the string positional anyway — see support::Options conventions).
    std::string text = options.get_string("spec", "");
    if (text.empty() && !options.positional().empty()) {
      text = options.positional().front();
    }
    spec = text.empty() ? spec_from_flags(options) : exp::parse_run_spec(text);
    if (spec.executor == exp::Executor::kSim) {
      // This example demonstrates the runtime; sim specs belong to ct_sim.
      spec.executor = exp::Executor::kRtSharded;
    }
    if (spec.faults.chaos_enabled() && spec.deadline_ms == 0) {
      // Chaos without a deadline could wait out the full 10 s epoch timeout
      // per degraded epoch; default to a snappy bound.
      spec.deadline_ms = 500;
    }
    spec.validate();
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }

  const bool chaotic = spec.faults.chaos_enabled();
  std::cout << "spec: " << spec.to_string() << "\n";

  const exp::RunRecord result = exp::run(spec);
  std::cout << "executor           : " << result.executor << " (" << result.workers
            << (spec.executor == exp::Executor::kRtUdp ? " worker processes)\n"
                                                       : " worker threads)\n")
            << "iterations         : " << result.runs << "\n"
            << "median latency     : " << result.latency_p50 << " us\n"
            << "p99 latency        : " << result.latency_p99 << " us\n"
            << "messages/process   : " << result.messages_per_process << "\n"
            << "incomplete epochs  : " << result.incomplete
            << " (0 = every live rank colored every time)\n"
            << "timeouts           : " << result.timeouts << "\n";
  if (spec.executor == exp::Executor::kRtUdp) {
    std::cout << "retransmits        : " << result.retransmits
              << " (perfect-links recoveries)\n"
              << "duplicates dropped : " << result.dup_drops << "\n";
  }
  if (chaotic) {
    std::cout << "degraded epochs    : " << result.epochs_degraded << " / "
              << result.runs << "\n"
              << "ranks crashed      : " << result.ranks_crashed << "\n"
              << "dropped/delayed/dup: " << result.messages_dropped << "/"
              << result.messages_delayed << "/" << result.messages_duplicated << "\n";
    if (spec.faults.repair) {
      std::cout << "repairs            : " << result.repairs << "\n"
                << "rejoins            : " << result.rejoins << " ("
                << result.replayed_epochs << " epochs replayed, "
                << result.state_transfers << " state transfers)\n"
                << "epochs to converge : " << result.epochs_to_converge
                << " (epochs degraded past the last fault)\n";
    }
    if (result.epochs_degraded > 0) {
      std::cout << "first epoch detail:\n  crashed mid-epoch  : ";
      print_ranks(result.crashed_ranks);
      std::cout << "\n  uncolored survivors: ";
      print_ranks(result.uncolored_survivors);
      std::cout << "\n";
    }
    // Under chaos, degraded epochs are the expected outcome being studied;
    // success means every epoch terminated and was explained.
    return 0;
  }
  return (result.incomplete == 0 && result.timeouts == 0) ? 0 : 1;
}
