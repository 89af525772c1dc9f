#include "experiment/runner.hpp"

#include <memory>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "protocol/ack_tree.hpp"
#include "protocol/tree_broadcast.hpp"
#include "sim/simulator.hpp"
#include "support/rng.hpp"

namespace ct::exp {

void Aggregate::add(const sim::RunResult& result) {
  ++runs;
  if (result.coloring_latency != sim::kTimeNever) {
    coloring_latency.add(static_cast<double>(result.coloring_latency));
  }
  quiescence_latency.add(static_cast<double>(result.quiescence_latency));
  messages_per_process.add(result.messages_per_process());
  if (!result.fully_colored()) {
    ++not_fully_colored;
    uncolored_total += result.uncolored_live;
  }
  if (result.has_dissemination_snapshot) {
    max_gap.add(static_cast<double>(result.dissemination_gaps.max_gap));
    gap_count.add(static_cast<double>(result.dissemination_gaps.gap_count));
    correction_time.add(static_cast<double>(result.correction_time()));
  }
}

void Aggregate::reserve(std::size_t reps) {
  coloring_latency.reserve(reps);
  quiescence_latency.reserve(reps);
  messages_per_process.reserve(reps);
  max_gap.reserve(reps);
  gap_count.reserve(reps);
  correction_time.reserve(reps);
}

void Aggregate::merge(const Aggregate& other) {
  coloring_latency.merge(other.coloring_latency);
  quiescence_latency.merge(other.quiescence_latency);
  messages_per_process.merge(other.messages_per_process);
  max_gap.merge(other.max_gap);
  gap_count.merge(other.gap_count);
  correction_time.merge(other.correction_time);
  runs += other.runs;
  not_fully_colored += other.not_fully_colored;
  uncolored_total += other.uncolored_total;
}

namespace {

void sample_faults(const Scenario& scenario, support::Xoshiro256ss& rng,
                   sim::FaultSet& out) {
  if (scenario.fault_count > 0) {
    sim::FaultSet::sample_count_into(out, scenario.params.P, scenario.fault_count, rng);
  } else if (scenario.fault_fraction > 0.0) {
    sim::FaultSet::sample_fraction_into(out, scenario.params.P, scenario.fault_fraction,
                                        rng);
  } else {
    sim::FaultSet::sample_none_into(out, scenario.params.P);
  }
  // Mid-run deaths stack on top of the static sample; t = 1 is strictly
  // before any rank's first receive can complete (see runner.hpp).
  for (const topo::Rank victim : scenario.mid_run_deaths) out.kill_at(victim, 1);
}

/// Scenario with tree & sync_time resolved; the tree is shared across
/// replications (simulation only reads it).
struct Prepared {
  Scenario scenario;
  std::unique_ptr<topo::Tree> tree;
};

Prepared prepare(const Scenario& input) {
  Prepared prepared{input, nullptr};
  auto& scenario = prepared.scenario;
  scenario.params.validate();
  if (scenario.protocol == ProtocolKind::kGossip) return prepared;

  prepared.tree =
      std::make_unique<topo::Tree>(topo::make_tree(scenario.tree, scenario.params.P));
  if (scenario.protocol == ProtocolKind::kCorrectedTree &&
      scenario.correction.kind != proto::CorrectionKind::kNone &&
      scenario.correction.start == proto::CorrectionStart::kSynchronized &&
      scenario.correction.sync_time == 0) {
    scenario.correction.sync_time =
        proto::fault_free_dissemination_time(*prepared.tree, scenario.params);
  }
  return prepared;
}

const sim::RunResult& run_prepared(const Prepared& prepared, std::uint64_t rep_seed,
                                   const sim::RunOptions& options, ReplicaPlan& plan) {
  const Scenario& scenario = prepared.scenario;
  support::Xoshiro256ss rng(rep_seed);
  sample_faults(scenario, rng, plan.faults);
  sim::Simulator simulator(scenario.params, &plan.faults);

  switch (scenario.protocol) {
    case ProtocolKind::kCorrectedTree: {
      proto::CorrectedTreeBroadcast protocol(*prepared.tree, scenario.correction,
                                             /*payload=*/0, &plan.tree, &plan.correction);
      simulator.run(protocol, options, plan.workspace, plan.result);
      return plan.result;
    }
    case ProtocolKind::kAckTree: {
      proto::AckTreeBroadcast protocol(*prepared.tree, &plan.ack);
      simulator.run(protocol, options, plan.workspace, plan.result);
      return plan.result;
    }
    case ProtocolKind::kGossip: {
      proto::GossipConfig config = scenario.gossip;
      config.seed = support::derive_seed(rep_seed, 0x60551b);
      proto::CorrectedGossipBroadcast protocol(scenario.params.P, config, &plan.gossip,
                                               &plan.correction);
      simulator.run(protocol, options, plan.workspace, plan.result);
      return plan.result;
    }
  }
  throw std::logic_error("unreachable protocol kind");
}

}  // namespace

sim::FaultSet scenario_faults(const Scenario& scenario, std::uint64_t rep_seed) {
  support::Xoshiro256ss rng(rep_seed);
  sim::FaultSet faults;
  sample_faults(scenario, rng, faults);
  return faults;
}

sim::RunResult run_once(const Scenario& scenario, std::uint64_t rep_seed,
                        const sim::RunOptions& options) {
  ReplicaPlan plan;
  return run_prepared(prepare(scenario), rep_seed, options, plan);
}

const sim::RunResult& run_once(const Scenario& scenario, std::uint64_t rep_seed,
                               const sim::RunOptions& options, ReplicaPlan& plan) {
  return run_prepared(prepare(scenario), rep_seed, options, plan);
}

Aggregate run_replicated(const Scenario& scenario, std::size_t reps, std::uint64_t seed,
                         const support::ThreadPool* pool) {
  return run_replicated_range(scenario, 0, reps, seed, pool);
}

Aggregate run_replicated_range(const Scenario& scenario, std::size_t rep_begin,
                               std::size_t rep_end, std::uint64_t seed,
                               const support::ThreadPool* pool) {
  const Prepared prepared = prepare(scenario);
  const std::size_t reps = rep_end > rep_begin ? rep_end - rep_begin : 0;

  if (!pool || pool->size() <= 1 || reps < 2) {
    Aggregate aggregate;
    aggregate.reserve(reps);
    ReplicaPlan plan;  // reused across every replication
    for (std::size_t rep = rep_begin; rep < rep_end; ++rep) {
      aggregate.add(run_prepared(prepared, support::derive_seed(seed, rep), {}, plan));
    }
    return aggregate;
  }

  // Work-stealing over fixed chunks: chunk k always covers the same rep
  // range, each chunk is accumulated worker-locally (one Aggregate on the
  // worker's stack — adjacent partial[] blocks would false-share cache
  // lines) and written exactly once, and partials merge in k order — so the
  // result is byte-identical to the serial loop no matter which worker ran
  // which chunk. One ReplicaPlan per worker amortises simulator, fault-set
  // and protocol-scratch allocations.
  const std::size_t workers = pool->size();
  const std::size_t chunk = support::ThreadPool::default_chunk(reps, workers);
  std::vector<Aggregate> partial((reps + chunk - 1) / chunk);
  std::vector<ReplicaPlan> plans(workers);
  pool->parallel_for_chunks(
      reps, chunk, [&](std::size_t worker, std::size_t begin, std::size_t end) {
        Aggregate local;
        for (std::size_t rep = begin; rep < end; ++rep) {
          local.add(run_prepared(prepared, support::derive_seed(seed, rep_begin + rep), {},
                                 plans[worker]));
        }
        partial[begin / chunk] = std::move(local);
      });
  Aggregate aggregate;
  aggregate.reserve(reps);
  for (const Aggregate& part : partial) aggregate.merge(part);
  return aggregate;
}

}  // namespace ct::exp
