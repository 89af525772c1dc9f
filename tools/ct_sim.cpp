// ct_sim — general-purpose scenario runner: every collective, protocol,
// tree, correction algorithm, LogP/LogGP parameter, fault model and
// executor in this library from one command line. The Swiss-army knife
// behind ad-hoc experiments that the figure benches don't cover.
//
// Every run is one exp::RunSpec cell (DESIGN.md §4e); pass the spec string
// directly, or build one from flags. The canonical spec is echoed so any
// run can be reproduced — including on the other substrate by just editing
// its exec= parameter.
//
// Examples:
//   ct_sim "bcast:binomial:checked:overlapped@P=1024,f=2%,exec=sim"
//   ct_sim --tree=lame:3 --correction=checked --start=sync --procs 65536 --fault-rate 0.01
//   ct_sim --protocol=gossip --gossip-time 40 --procs 16384 --reps 50
//   ct_sim --correction=opportunistic --distance 2 --L 4 --o 2 --bytes 16 --G 1 --csv

#include <algorithm>
#include <array>
#include <iostream>
#include <string_view>

#include "experiment/run_spec.hpp"
#include "support/options.hpp"
#include "support/table.hpp"

namespace {

void print_usage() {
  std::cout <<
      R"(ct_sim — corrected-trees scenario runner

  --spec "STRING"                full RunSpec cell; overrides all flags below
  --collective=bcast|reduce|allreduce                          [bcast]
  --protocol=tree|ack|gossip     protocol family               [tree]
  --tree=SPEC                    binomial, binomial-inorder, kary:K,
                                 kary-inorder:K, lame:K, optimal [binomial]
  --correction=KIND              none, opportunistic, opportunistic-plain,
                                 checked, failure-proof, delayed [opportunistic]
  --distance N                   correction distance d        [4]
  --delay N                      delayed correction's delay   [substrate default]
  --start=sync|overlapped        correction start mode        [overlapped]
  --left-only                    single-direction correction
  --gossip-time N                gossip budget (time-based)   [40]
  --procs N  --reps N  --seed N  scale                        [4096/100/..]
  --faults N | --fault-rate F    failures per run             [0]
  --L --o --g --bytes --G --O    LogP / LogGP parameters      [2/1/1/1/0/0]
  --exec=sim|rt-sharded|rt-udp   executor substrate           [sim]
  --workers N                    rt worker count unless exec= sets one [0 = auto]
  --csv                          machine-readable output (sim executor)
  --help                         this text
)";
}

/// The flags print_usage lists; any other --name is rejected.
constexpr auto kFlags = std::to_array<std::string_view>(
    {"spec", "collective", "protocol", "tree", "correction", "distance", "delay",
     "start", "left-only", "gossip-time", "procs", "reps", "seed", "faults",
     "fault-rate", "L", "o", "g", "bytes", "G", "O", "exec", "workers", "csv", "help"});

ct::exp::RunSpec spec_from_flags(const ct::support::Options& options) {
  using namespace ct;
  exp::RunSpec spec;
  spec.collective = exp::parse_collective(options.get_string("collective", "bcast"));
  spec.params.L = options.get_int("L", 2);
  spec.params.o = options.get_int("o", 1);
  spec.params.g = options.get_int("g", spec.params.o);
  spec.params.G = options.get_int("G", 0);
  spec.params.O = options.get_int("O", 0);
  spec.params.bytes = options.get_int("bytes", 1);
  spec.params.P = static_cast<topo::Rank>(options.get_int("procs", 4096));

  spec.tree = topo::parse_tree_spec(options.get_string("tree", "binomial"));
  spec.correction.kind =
      proto::parse_correction_kind(options.get_string("correction", "opportunistic"));
  spec.correction.distance = static_cast<int>(options.get_int("distance", 4));
  spec.correction.start =
      proto::parse_correction_start(options.get_string("start", "overlapped"));
  if (options.get_flag("left-only")) {
    spec.correction.directions = proto::CorrectionDirections::kLeftOnly;
  }
  spec.correction.delay = options.get_int("delay", 0);  // 0 = substrate default

  const std::string protocol = options.get_string("protocol", "tree");
  if (protocol == "tree") {
    spec.protocol = exp::ProtocolKind::kCorrectedTree;
  } else if (protocol == "ack") {
    spec.protocol = exp::ProtocolKind::kAckTree;
  } else if (protocol == "gossip") {
    spec.protocol = exp::ProtocolKind::kGossip;
    spec.gossip_time = options.get_int("gossip-time", 40);
  } else {
    throw std::invalid_argument("unknown --protocol '" + protocol + "'");
  }

  spec.faults.count = static_cast<topo::Rank>(options.get_int("faults", 0));
  spec.faults.fraction = options.get_double("fault-rate", 0.0);

  spec.reps = options.get_int("reps", 100);
  spec.seed = static_cast<std::uint64_t>(options.get_int("seed", 0x5eed5eed));

  exp::parse_executor(options.get_string("exec", "sim"), spec);
  if (spec.workers == 0) {
    spec.workers = static_cast<int>(options.get_int("workers", 0));
  }
  if (spec.executor == exp::Executor::kSim) spec.workers = 0;
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ct;
  support::Options options;
  exp::RunSpec spec;
  try {
    options = support::Options(argc, argv);
    for (const auto& [name, value] : options.given()) {
      if (std::find(kFlags.begin(), kFlags.end(), name) == kFlags.end()) {
        throw std::invalid_argument("unknown flag --" + name);
      }
    }
    if (options.get_flag("help")) {
      print_usage();
      return 0;
    }
    // --spec=STRING or a positional spec string.
    std::string text = options.get_string("spec", "");
    if (text.empty() && !options.positional().empty()) {
      text = options.positional().front();
    }
    spec = text.empty() ? spec_from_flags(options) : exp::parse_run_spec(text);
    spec.validate();
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

  if (spec.executor != exp::Executor::kSim) {
    std::cout << "spec: " << record.spec << "\n"
              << "executor          : " << record.executor << " (" << record.workers
              << (spec.executor == exp::Executor::kRtUdp ? " worker processes)\n"
                                                         : " worker threads)\n")
              << "iterations        : " << record.runs << "\n"
              << "median latency    : " << record.latency_p50 << " us\n"
              << "p99 latency       : " << record.latency_p99 << " us\n"
              << "messages/process  : " << record.messages_per_process << "\n"
              << "messages/s        : " << record.messages_per_sec << "\n"
              << "incomplete epochs : " << record.incomplete << "\n"
              << "timeouts          : " << record.timeouts << "\n";
    return (record.incomplete == 0 && record.timeouts == 0) ? 0 : 1;
  }

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
