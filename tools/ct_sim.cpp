// ct_sim — runs one exp::RunSpec cell (DESIGN.md §4e) on the substrate its
// exec= names: every collective, protocol, tree, correction algorithm,
// LogP/LogGP parameter, fault and chaos model and executor in this library,
// stated in the one spec grammar. The canonical spec is echoed so any run
// can be reproduced — including on the other substrate by editing exec=.
//
// Examples:
//   ct_sim "bcast:binomial:checked:overlapped@P=1024,f=2%,exec=sim"
//   ct_sim "bcast:lame:3:checked:sync@P=65536,f=0.01,reps=100,exec=sim"
//   ct_sim --csv "bcast:binomial:opportunistic:2:overlapped@P=4096,L=4,o=2,bytes=16,G=1"
//   ct_sim "bcast:binomial:checked:overlapped@P=512,chaos-seed=7,crash-frac=0.02,drop-prob=0.01,reps=200,deadline-ms=500,exec=rt-sharded"

#include <algorithm>
#include <array>
#include <iostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "experiment/run_spec.hpp"
#include "support/options.hpp"
#include "support/table.hpp"

namespace {

void print_usage() {
  std::cout <<
      R"(ct_sim — corrected-trees scenario runner: one RunSpec cell per run

usage: ct_sim [--csv] SPEC
       ct_sim [--csv] --spec=SPEC

  SPEC     collective:tree:correction[:d]:start[:left]@P=N[,key=value...]
           e.g. "bcast:binomial:checked:overlapped@P=1024,f=2%,exec=sim";
           DESIGN.md §4e lists every key and its default
  --spec   the spec string, as an option
  --csv    machine-readable percentile table (exec=sim)
  --help   this text
)";
}

/// The flags print_usage lists; any other --name is rejected.
constexpr auto kFlags = std::to_array<std::string_view>({"spec", "csv", "help"});

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

/// The runtime report. Exit 1 on incomplete epochs or timeouts, unless the
/// spec injects chaos: there degraded epochs are the outcome under study,
/// and a run that terminated and explained them succeeded.
int report_runtime(const ct::exp::RunSpec& spec, const ct::exp::RunRecord& record) {
  using ct::exp::Executor;
  const bool udp = spec.executor == Executor::kRtUdp;
  std::cout << "spec: " << record.spec << "\n"
            << "executor           : " << record.executor << " (" << record.workers
            << (udp ? " worker processes)\n" : " worker threads)\n")
            << "iterations         : " << record.runs << "\n"
            << "median latency     : " << record.latency_p50 << " us\n"
            << "p99 latency        : " << record.latency_p99 << " us\n"
            << "messages/process   : " << record.messages_per_process << "\n"
            << "messages/s         : " << record.messages_per_sec << "\n"
            << "incomplete epochs  : " << record.incomplete
            << " (0 = every live rank colored every time)\n"
            << "timeouts           : " << record.timeouts << "\n";
  if (udp) {
    std::cout << "retransmits        : " << record.retransmits
              << " (perfect-links recoveries)\n"
              << "duplicates dropped : " << record.dup_drops << "\n";
  }
  const bool chaotic = spec.faults.chaos_enabled();
  if (chaotic) {
    std::cout << "degraded epochs    : " << record.epochs_degraded << " / " << record.runs
              << "\n"
              << "ranks crashed      : " << record.ranks_crashed << "\n"
              << "dropped/delayed/dup: " << record.messages_dropped << "/"
              << record.messages_delayed << "/" << record.messages_duplicated << "\n";
  }
  if (spec.faults.repair) {
    std::cout << "repairs            : " << record.repairs << "\n"
              << "rejoins            : " << record.rejoins << " (" << record.replayed_epochs
              << " epochs replayed, " << record.state_transfers << " state transfers)\n"
              << "epochs to converge : " << record.epochs_to_converge
              << " (epochs degraded past the last fault)\n";
  }
  if (record.epochs_degraded > 0) {
    std::cout << "first epoch detail:\n  crashed mid-epoch  : ";
    print_ranks(record.crashed_ranks);
    std::cout << "\n  uncolored survivors: ";
    print_ranks(record.uncolored_survivors);
    std::cout << "\n";
  }
  return chaotic || (record.incomplete == 0 && record.timeouts == 0) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ct;
  support::Options options;
  exp::RunSpec spec;
  try {
    options = support::Options(argc, argv);
    std::string unknown;
    int unknown_count = 0;
    for (const auto& [name, value] : options.given()) {
      if (std::find(kFlags.begin(), kFlags.end(), name) == kFlags.end()) {
        unknown += (unknown_count++ ? ", --" : " --") + name;
      }
    }
    if (unknown_count > 0) {
      throw std::invalid_argument((unknown_count > 1 ? "unknown flags" : "unknown flag") +
                                  unknown);
    }
    if (options.get_flag("help")) {
      print_usage();
      return 0;
    }
    // --spec=STRING or one positional spec string (--spec STRING leaves the
    // string positional; see support::Options conventions).
    std::vector<std::string> texts = options.positional();
    if (const std::string text = options.get_string("spec", ""); !text.empty()) {
      texts.push_back(text);
    }
    if (texts.size() != 1) {
      throw std::invalid_argument("ct_sim takes exactly one spec string, got " +
                                  std::to_string(texts.size()));
    }
    spec = exp::parse_run_spec(texts.front());
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    print_usage();
    return 2;
  }

  const support::ThreadPool pool;
  exp::RunRecord record;
  try {
    record = exp::run(spec, &pool);
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 1;
  }

  if (spec.executor != exp::Executor::kSim) return report_runtime(spec, record);

  const exp::Aggregate& agg = record.aggregate;
  support::Table table({"metric", "mean", "p5", "p50", "p95", "max"});
  auto row = [&](const char* name, const support::Samples& samples, int precision) {
    if (samples.empty()) {
      table.add_row({name, "-", "-", "-", "-", "-"});
      return;
    }
    table.add_row({name, support::fmt(samples.mean(), precision),
                   support::fmt(samples.percentile(0.05), precision),
                   support::fmt(samples.median(), precision),
                   support::fmt(samples.percentile(0.95), precision),
                   support::fmt(samples.max(), precision)});
  };
  row("coloring latency", agg.coloring_latency, 1);
  row("quiescence latency", agg.quiescence_latency, 1);
  row("messages/process", agg.messages_per_process, 2);
  row("max gap", agg.max_gap, 1);
  row("correction time", agg.correction_time, 1);

  if (options.get_flag("csv")) {
    table.print_csv(std::cout);
  } else {
    std::cout << "spec: " << record.spec << "\n\n";
    table.print(std::cout);
    std::cout << "\nruns leaving live processes uncolored: " << record.incomplete
              << " / " << record.runs << "\n";
  }
  return 0;
}
