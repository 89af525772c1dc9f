// Related-work comparison (§5, made runnable): Corrected Trees vs the three
// fault-tolerance schools the paper discusses —
//   * acknowledgment trees ("the tree has to be traversed twice"),
//   * failure-detector recovery (Hursey & Graham style pull-on-timeout),
//   * multi-tree redundancy (Itai & Rodeh / SplitStream style),
//   * Corrected Gossip (the direct predecessor).
// Metrics: fault-free latency & messages, and faulty latency & reliability.
// Expected shape: corrected trees are the only variant combining one-way
// latency (+ constant), ~1 extra message/process, and fault tolerance
// without detection delays.

#include "bench_common.hpp"
#include "protocol/ack_tree.hpp"
#include "protocol/baselines.hpp"
#include "protocol/gossip_tuning.hpp"
#include "protocol/tree_broadcast.hpp"

namespace {

using namespace ct;

struct Outcome {
  double latency = 0;
  double messages = 0;
  std::int64_t uncolored = 0;
};

template <class MakeProtocol>
Outcome run(const bench::BenchEnv& env, topo::Rank faults, MakeProtocol make,
            std::size_t reps) {
  Outcome outcome;
  const sim::LogP params = env.logp(env.procs);
  for (std::size_t rep = 0; rep < reps; ++rep) {
    support::Xoshiro256ss rng(support::derive_seed(env.seed, rep));
    const sim::FaultSet fault_set =
        faults > 0 ? sim::FaultSet::random_count(env.procs, faults, rng)
                   : sim::FaultSet::none(env.procs);
    auto protocol = make(rep);
    sim::Simulator simulator(params, fault_set);
    const sim::RunResult result = simulator.run(*protocol);
    outcome.latency += result.coloring_latency == sim::kTimeNever
                           ? static_cast<double>(result.quiescence_latency)
                           : static_cast<double>(result.coloring_latency);
    outcome.messages += result.messages_per_process();
    outcome.uncolored += result.uncolored_live;
  }
  outcome.latency /= static_cast<double>(reps);
  outcome.messages /= static_cast<double>(reps);
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchEnv env = bench::make_env(argc, argv, /*procs=*/4096, /*reps=*/40);
  bench::print_header(
      env, "Related-work comparison — coloring latency and traffic (§5)",
      "the paper compares these schools qualitatively in §5",
      "corrected trees: lowest faulty latency at ~2 msgs/proc; ack-tree "
      "doubles latency; detector pays timeouts under faults; multi-tree "
      "doubles traffic; gossip needs several times the messages");

  const topo::Tree tree = topo::make_binomial_interleaved(env.procs);
  const sim::LogP params = env.logp(env.procs);

  proto::CorrectionConfig corrected_cfg;
  corrected_cfg.kind = proto::CorrectionKind::kOptimizedOpportunistic;
  corrected_cfg.start = proto::CorrectionStart::kOverlapped;
  corrected_cfg.distance = 4;

  proto::CorrectionConfig checked_cfg;
  checked_cfg.kind = proto::CorrectionKind::kChecked;
  checked_cfg.start = proto::CorrectionStart::kSynchronized;
  checked_cfg.sync_time = proto::fault_free_dissemination_time(tree, params);

  const proto::GossipTuneResult tuned = proto::tune_gossip_for_latency(
      params, proto::CorrectionConfig{.kind = proto::CorrectionKind::kChecked},
      /*reps=*/3, env.seed);

  support::Table table({"scheme", "faults", "coloring latency", "msgs/proc",
                        "uncolored (total)"});
  const topo::Rank fault_count = std::max<topo::Rank>(1, env.procs / 100);
  for (topo::Rank faults : {topo::Rank{0}, fault_count}) {
    const std::size_t reps = faults == 0 ? 3 : env.reps;

    const Outcome corrected = run(env, faults, [&](std::size_t) {
      return std::make_unique<proto::CorrectedTreeBroadcast>(tree, corrected_cfg);
    }, reps);
    const Outcome checked = run(env, faults, [&](std::size_t) {
      return std::make_unique<proto::CorrectedTreeBroadcast>(tree, checked_cfg);
    }, reps);
    const Outcome acked = run(env, faults, [&](std::size_t) {
      return std::make_unique<proto::AckTreeBroadcast>(tree);
    }, reps);
    const Outcome detector = run(env, faults, [&](std::size_t) {
      return std::make_unique<proto::DetectorTreeBroadcast>(tree, params);
    }, reps);
    const Outcome multi = run(env, faults, [&](std::size_t) {
      return std::make_unique<proto::MultiTreeBroadcast>(
          proto::make_rotated_trees(env.procs, 2));
    }, reps);
    const Outcome gossip = run(env, faults, [&](std::size_t rep) {
      proto::GossipConfig config;
      config.budget = proto::GossipConfig::Budget::kTime;
      config.gossip_time = tuned.gossip_time;
      config.correction.kind = proto::CorrectionKind::kChecked;
      config.correction.start = proto::CorrectionStart::kSynchronized;
      config.correction.sync_time = tuned.gossip_time;
      config.seed = support::derive_seed(env.seed, 1000 + rep);
      return std::make_unique<proto::CorrectedGossipBroadcast>(env.procs, config);
    }, std::max<std::size_t>(reps / 4, 3));

    auto add = [&](const char* name, const Outcome& outcome) {
      table.add_row({name, support::fmt_int(faults), support::fmt(outcome.latency, 1),
                     support::fmt(outcome.messages, 2),
                     support::fmt_int(outcome.uncolored)});
    };
    add("corrected tree (opp.4)", corrected);
    add("corrected tree (checked)", checked);
    add("ack tree", acked);
    add("detector tree", detector);
    add("multi-tree (2x)", multi);
    add("corrected gossip", gossip);
    table.add_separator();
  }
  bench::emit(env, table);
  return 0;
}
