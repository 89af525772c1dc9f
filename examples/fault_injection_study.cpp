// Fault-injection study: a miniature version of the paper's §4.3 resilience
// evaluation you can run over lunch. Sweeps fault rates over a chosen tree
// and correction algorithm, replicated with recorded seeds, and prints how
// latency, traffic and reliability respond.
//
//   $ ./fault_injection_study --procs 4096 --reps 100 --tree=binomial --correction=checked

#include <iostream>

#include "experiment/runner.hpp"
#include "support/options.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace ct;
  const support::Options options(argc, argv);
  const auto procs = static_cast<topo::Rank>(options.get_int("procs", 4096));
  const auto reps = static_cast<std::size_t>(options.get_int("reps", 100));
  const auto seed = static_cast<std::uint64_t>(options.get_int("seed", 1));
  const std::string tree = options.get_string("tree", "binomial");
  const std::string correction = options.get_string("correction", "checked");

  exp::Scenario scenario;
  scenario.params = sim::LogP{2, 1, 1, procs};
  scenario.tree = topo::parse_tree_spec(tree);
  scenario.correction.kind = proto::parse_correction_kind(correction);
  scenario.correction.start = scenario.correction.kind == proto::CorrectionKind::kChecked
                                  ? proto::CorrectionStart::kSynchronized
                                  : proto::CorrectionStart::kOverlapped;
  scenario.correction.distance = static_cast<int>(options.get_int("distance", 4));
  scenario.correction.delay = 2 * scenario.params.message_cost();

  std::cout << "tree=" << tree << " correction=" << scenario.correction.to_string()
            << " P=" << procs << " reps=" << reps << " seed=" << seed << "\n\n";

  const support::ThreadPool pool;
  support::Table table({"fault rate", "latency mean", "latency p95", "msgs/proc",
                        "max gap p95", "runs w/ uncolored"});
  for (double rate : {0.0, 0.0001, 0.001, 0.01, 0.02, 0.04}) {
    scenario.fault_fraction = rate;
    const exp::Aggregate agg = exp::run_replicated(scenario, reps, seed, &pool);
    table.add_row(
        {support::fmt(rate * 100, 2) + "%", support::fmt(agg.quiescence_latency.mean(), 1),
         support::fmt(agg.quiescence_latency.percentile(0.95), 1),
         support::fmt(agg.messages_per_process.mean(), 2),
         agg.max_gap.empty() ? "-" : support::fmt(agg.max_gap.percentile(0.95), 1),
         support::fmt_int(agg.not_fully_colored)});
  }
  table.print(std::cout);
  std::cout << "\nEvery row is reproducible: replication i uses seed derive_seed(seed, i).\n";
  return 0;
}
