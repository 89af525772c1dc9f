// Baseline protocols (ack-tree, Corrected Gossip), gossip tuning, the
// corrected-reduce extension, and the experiment runner.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "experiment/runner.hpp"
#include "protocol/ack_tree.hpp"
#include "protocol/gossip_broadcast.hpp"
#include "protocol/gossip_tuning.hpp"
#include "protocol/reduce.hpp"
#include "protocol/tree_broadcast.hpp"
#include "sim/simulator.hpp"
#include "support/rng.hpp"
#include "topology/factory.hpp"

namespace ct::proto {
namespace {

using topo::Rank;

// --- Ack-tree baseline -----------------------------------------------------------

TEST(AckTree, FaultFreeDoublesTraffic) {
  // §5: payload down + ack up = 2 messages per non-root process and roughly
  // double the latency of the bare tree.
  const Rank procs = 256;
  const topo::Tree tree = topo::make_binomial_interleaved(procs);
  const sim::LogP params{2, 1, 1, procs};
  AckTreeBroadcast protocol(tree);
  sim::Simulator simulator(params, sim::FaultSet::none(procs));
  const sim::RunResult result = simulator.run(protocol);
  EXPECT_TRUE(protocol.root_acknowledged());
  EXPECT_TRUE(result.fully_colored());
  EXPECT_EQ(result.total_messages, 2 * (procs - 1));
  const sim::Time dissemination = fault_free_dissemination_time(tree, params);
  EXPECT_GE(result.quiescence_latency, 2 * dissemination - params.message_cost());
}

TEST(AckTree, HangsOnFailureLikeFaultAgnosticMpi) {
  // A failed inner node never acks; the root never completes — exactly the
  // "hang or crash" behaviour of fault-agnostic MPI collectives (§1).
  const Rank procs = 64;
  const topo::Tree tree = topo::make_binomial_interleaved(procs);
  AckTreeBroadcast protocol(tree);
  sim::Simulator simulator(sim::LogP{2, 1, 1, procs},
                           sim::FaultSet::from_list(procs, {1}));
  const sim::RunResult result = simulator.run(protocol);
  EXPECT_FALSE(protocol.root_acknowledged());
  EXPECT_FALSE(result.fully_colored());
}

TEST(AckTree, SingleProcessTriviallyAcknowledged) {
  const topo::Tree tree = topo::make_binomial_interleaved(1);
  AckTreeBroadcast protocol(tree);
  sim::Simulator simulator(sim::LogP{2, 1, 1, 1}, sim::FaultSet::none(1));
  simulator.run(protocol);
  EXPECT_TRUE(protocol.root_acknowledged());
}

// --- Corrected Gossip --------------------------------------------------------------

GossipConfig gossip_config(sim::Time gossip_time, CorrectionKind kind) {
  GossipConfig config;
  config.budget = GossipConfig::Budget::kTime;
  config.gossip_time = gossip_time;
  config.correction.kind = kind;
  config.correction.start = CorrectionStart::kSynchronized;
  config.correction.sync_time = gossip_time;
  config.seed = 1234;
  return config;
}

TEST(Gossip, ColoringGrowsWithGossipTime) {
  const Rank procs = 256;
  const sim::LogP params{2, 1, 1, procs};
  Rank colored_short = 0;
  Rank colored_long = 0;
  for (auto [time, colored] :
       {std::pair<sim::Time, Rank*>{8, &colored_short}, {60, &colored_long}}) {
    CorrectedGossipBroadcast protocol(procs, gossip_config(time, CorrectionKind::kNone));
    sim::Simulator simulator(params, sim::FaultSet::none(procs));
    const sim::RunResult result = simulator.run(protocol);
    *colored = procs - result.uncolored_live;
  }
  EXPECT_LT(colored_short, colored_long);
  EXPECT_GT(colored_short, 1);  // the root did infect someone
}

TEST(Gossip, CheckedCorrectionCompletesColoring) {
  const Rank procs = 256;
  const sim::LogP params{2, 1, 1, procs};
  // Deliberately short gossip: correction must finish the job.
  CorrectedGossipBroadcast protocol(procs, gossip_config(20, CorrectionKind::kChecked));
  sim::Simulator simulator(params, sim::FaultSet::none(procs));
  const sim::RunResult result = simulator.run(protocol);
  EXPECT_TRUE(result.fully_colored());
  ASSERT_TRUE(result.has_dissemination_snapshot);
  EXPECT_EQ(result.correction_start, 20);
}

TEST(Gossip, SurvivesHeavyFaultsWithChecked) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const Rank procs = 256;
    support::Xoshiro256ss rng(seed);
    GossipConfig config = gossip_config(48, CorrectionKind::kChecked);
    config.seed = seed;
    CorrectedGossipBroadcast protocol(procs, config);
    sim::Simulator simulator(sim::LogP{2, 1, 1, procs},
                             sim::FaultSet::random_fraction(procs, 0.10, rng));
    const sim::RunResult result = simulator.run(protocol);
    EXPECT_TRUE(result.fully_colored()) << "seed=" << seed;
  }
}

TEST(Gossip, DeterministicGivenSeed) {
  const Rank procs = 128;
  auto run = [&](std::uint64_t seed) {
    GossipConfig config = gossip_config(30, CorrectionKind::kChecked);
    config.seed = seed;
    CorrectedGossipBroadcast protocol(procs, config);
    sim::Simulator simulator(sim::LogP{2, 1, 1, procs}, sim::FaultSet::none(procs));
    return simulator.run(protocol);
  };
  const sim::RunResult a = run(5);
  const sim::RunResult b = run(5);
  const sim::RunResult c = run(6);
  EXPECT_EQ(a.total_messages, b.total_messages);
  EXPECT_EQ(a.quiescence_latency, b.quiescence_latency);
  // Different stream, almost surely different traffic pattern.
  EXPECT_NE(a.total_messages, c.total_messages);
}

TEST(Gossip, RoundBasedBudgetTerminates) {
  const Rank procs = 128;
  GossipConfig config;
  config.budget = GossipConfig::Budget::kRounds;
  config.gossip_rounds = 10;
  config.correction.kind = CorrectionKind::kOptimizedOpportunistic;
  config.correction.start = CorrectionStart::kOverlapped;
  config.correction.distance = 4;
  config.seed = 77;
  CorrectedGossipBroadcast protocol(procs, config);
  sim::Simulator simulator(sim::LogP{2, 1, 1, procs}, sim::FaultSet::none(procs));
  const sim::RunResult result = simulator.run(protocol);
  EXPECT_TRUE(result.fully_colored());
}

TEST(Gossip, ValidatesConfig) {
  EXPECT_THROW(CorrectedGossipBroadcast(8, GossipConfig{}), std::invalid_argument);
  GossipConfig overlapped = gossip_config(10, CorrectionKind::kChecked);
  overlapped.correction.start = CorrectionStart::kOverlapped;
  EXPECT_THROW(CorrectedGossipBroadcast(8, overlapped), std::invalid_argument);
}

TEST(Gossip, MoreMessagesThanCorrectedTree) {
  // The paper's headline: "up to six times fewer messages sent in
  // comparison to existing schemes" (Fig. 6). At equal coloring success,
  // latency-tuned Corrected Gossip needs a multiple of the messages of a
  // corrected tree with opportunistic(d=1) correction (~8 vs ~3 per process
  // at this scale; the factor grows towards 6 at the paper's 64 Ki).
  const Rank procs = 512;
  const sim::LogP params{2, 1, 1, procs};

  CorrectionConfig checked;
  checked.kind = CorrectionKind::kChecked;
  const GossipTuneResult tuned = tune_gossip_for_latency(params, checked, 5, 42);
  CorrectedGossipBroadcast gossip(
      procs, gossip_config(tuned.gossip_time, CorrectionKind::kChecked));
  sim::Simulator gossip_sim(params, sim::FaultSet::none(procs));
  const sim::RunResult gossip_result = gossip_sim.run(gossip);

  exp::Scenario tree;
  tree.params = params;
  tree.tree = topo::parse_tree_spec("binomial");
  tree.correction.kind = CorrectionKind::kOptimizedOpportunistic;
  tree.correction.start = CorrectionStart::kOverlapped;
  tree.correction.distance = 1;
  const sim::RunResult tree_result = exp::run_once(tree, 1);

  EXPECT_TRUE(gossip_result.fully_colored());
  EXPECT_TRUE(tree_result.fully_colored());
  EXPECT_GT(gossip_result.total_messages, 2 * tree_result.total_messages);
}

// --- Gossip tuning -----------------------------------------------------------------

TEST(GossipTuning, ColoringTimeIsMinimal) {
  const sim::LogP params{2, 1, 1, 128};
  CorrectionConfig opportunistic;
  opportunistic.kind = CorrectionKind::kOptimizedOpportunistic;
  opportunistic.distance = 4;
  const GossipTuneResult tuned = tune_gossip_for_coloring(params, opportunistic, 5, 9);
  EXPECT_GT(tuned.gossip_time, 0);
  // One step shorter must fail to color somewhere within the same seeds.
  bool shorter_fails = false;
  for (std::size_t rep = 0; rep < 5; ++rep) {
    GossipConfig config;
    config.budget = GossipConfig::Budget::kTime;
    config.gossip_time = tuned.gossip_time - params.o;
    config.correction = opportunistic;
    config.correction.start = CorrectionStart::kSynchronized;
    config.correction.sync_time = config.gossip_time;
    config.seed = support::derive_seed(9, rep);
    CorrectedGossipBroadcast protocol(params.P, config);
    sim::Simulator simulator(params, sim::FaultSet::none(params.P));
    if (!simulator.run(protocol).fully_colored()) shorter_fails = true;
  }
  EXPECT_TRUE(shorter_fails);
}

TEST(GossipTuning, LatencyTuningBeatsExtremes) {
  const sim::LogP params{2, 1, 1, 128};
  CorrectionConfig checked;
  checked.kind = CorrectionKind::kChecked;
  const GossipTuneResult tuned = tune_gossip_for_latency(params, checked, 5, 11);
  EXPECT_GT(tuned.gossip_time, 0);
  EXPECT_GT(tuned.mean_quiescence, 0.0);
}

// --- Corrected reduce ----------------------------------------------------------------

TEST(Reduce, FaultFreeComputesMax) {
  const Rank procs = 128;
  const topo::Tree tree = topo::make_binomial_interleaved(procs);
  const sim::LogP params{2, 1, 1, procs};
  support::Xoshiro256ss rng(21);
  std::vector<std::int64_t> values;
  std::int64_t expected = 0;
  for (Rank r = 0; r < procs; ++r) {
    values.push_back(static_cast<std::int64_t>(rng.below(1'000'000)));
    expected = std::max(expected, values.back());
  }
  CorrectedReduce protocol(tree, params, values, ReduceConfig{.distance = 1});
  sim::Simulator simulator(params, sim::FaultSet::none(procs));
  simulator.run(protocol);
  EXPECT_TRUE(protocol.root_done());
  EXPECT_EQ(protocol.result(), expected);
}

TEST(Reduce, SurvivesFailuresViaRingReplicas) {
  // Kill random non-roots; the max over LIVE contributions must reach the
  // root whenever each live rank has a live replica holder with an intact
  // tree path (checked explicitly below, so the assertion is exact).
  const Rank procs = 128;
  const topo::Tree tree = topo::make_binomial_interleaved(procs);
  const sim::LogP params{2, 1, 1, procs};
  const int distance = 2;

  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    support::Xoshiro256ss rng(seed);
    const sim::FaultSet faults = sim::FaultSet::random_count(procs, 6, rng);

    std::vector<std::int64_t> values;
    for (Rank r = 0; r < procs; ++r) {
      values.push_back(static_cast<std::int64_t>(rng.below(1'000'000)));
    }

    auto path_alive = [&](Rank r) {
      for (Rank cur = r; cur != 0; cur = tree.parent(cur)) {
        if (faults.failed_from_start(cur)) return false;
      }
      return true;
    };
    // A live rank's value reaches the root iff some replica holder within
    // `distance` to the right (or itself) is live with an all-live path.
    std::int64_t reachable_max = values[0];
    bool all_reachable = true;
    for (Rank r = 1; r < procs; ++r) {
      if (faults.failed_from_start(r)) continue;
      bool reachable = false;
      for (int d = 0; d <= distance && !reachable; ++d) {
        const Rank holder = static_cast<Rank>((r + d) % procs);
        if (!faults.failed_from_start(holder) && path_alive(holder)) reachable = true;
      }
      if (reachable) {
        reachable_max = std::max(reachable_max, values[static_cast<std::size_t>(r)]);
      } else {
        all_reachable = false;
      }
    }

    CorrectedReduce protocol(tree, params, values, ReduceConfig{.distance = distance});
    sim::Simulator simulator(params, faults);
    simulator.run(protocol);
    EXPECT_TRUE(protocol.root_done()) << "seed=" << seed;
    if (all_reachable) {
      // Full recovery: the true live max arrives.
      EXPECT_EQ(protocol.result(), reachable_max) << "seed=" << seed;
    } else {
      // Even in the degraded case the result is at least the reachable max
      // (idempotent max never fabricates values).
      EXPECT_GE(protocol.result(), reachable_max) << "seed=" << seed;
    }
  }
}

TEST(Reduce, ValidatesInput) {
  const topo::Tree tree = topo::make_binomial_interleaved(4);
  const sim::LogP params{2, 1, 1, 4};
  EXPECT_THROW(CorrectedReduce(tree, params, {1, 2, 3}, ReduceConfig{}),
               std::invalid_argument);
  EXPECT_THROW(CorrectedReduce(tree, params, {1, 2, 3, 4}, ReduceConfig{.distance = -1}),
               std::invalid_argument);
}

TEST(Reduce, DeadlinesAreMonotoneUpTheTree) {
  const topo::Tree tree = topo::make_lame(64, 2);
  const sim::LogP params{2, 1, 1, 64};
  CorrectedReduce protocol(tree, params, std::vector<std::int64_t>(64, 0),
                           ReduceConfig{.distance = 1});
  for (Rank r = 1; r < 64; ++r) {
    EXPECT_GT(protocol.forward_deadline(tree.parent(r)), protocol.forward_deadline(r));
  }
}

// --- Experiment runner ----------------------------------------------------------------

TEST(Runner, AggregateAddAndMerge) {
  sim::RunResult result;
  result.num_procs = 10;
  result.quiescence_latency = 50;
  result.coloring_latency = 40;
  result.total_messages = 30;
  exp::Aggregate a;
  a.add(result);
  exp::Aggregate b;
  result.quiescence_latency = 70;
  result.uncolored_live = 2;
  b.add(result);
  a.merge(b);
  EXPECT_EQ(a.runs, 2);
  EXPECT_EQ(a.not_fully_colored, 1);
  EXPECT_EQ(a.uncolored_total, 2);
  EXPECT_DOUBLE_EQ(a.quiescence_latency.mean(), 60.0);
  EXPECT_DOUBLE_EQ(a.messages_per_process.mean(), 3.0);
}

TEST(Runner, DeterministicAcrossPoolSizes) {
  exp::Scenario scenario;
  scenario.params = sim::LogP{2, 1, 1, 128};
  scenario.tree = topo::parse_tree_spec("binomial");
  scenario.correction.kind = CorrectionKind::kChecked;
  scenario.correction.start = CorrectionStart::kSynchronized;
  scenario.fault_count = 4;

  const exp::Aggregate serial = exp::run_replicated(scenario, 24, 99, nullptr);
  const support::ThreadPool pool(4);
  const exp::Aggregate pooled = exp::run_replicated(scenario, 24, 99, &pool);
  EXPECT_EQ(serial.runs, pooled.runs);
  EXPECT_DOUBLE_EQ(serial.quiescence_latency.mean(), pooled.quiescence_latency.mean());
  EXPECT_DOUBLE_EQ(serial.quiescence_latency.percentile(0.9),
                   pooled.quiescence_latency.percentile(0.9));
  EXPECT_DOUBLE_EQ(serial.messages_per_process.mean(), pooled.messages_per_process.mean());
}

TEST(Runner, RunOnceMatchesReplication) {
  exp::Scenario scenario;
  scenario.params = sim::LogP{2, 1, 1, 64};
  scenario.tree = topo::parse_tree_spec("kary:4");
  scenario.correction.kind = CorrectionKind::kOptimizedOpportunistic;
  scenario.correction.start = CorrectionStart::kOverlapped;
  scenario.fault_count = 2;
  const exp::Aggregate aggregate = exp::run_replicated(scenario, 1, 7);
  const sim::RunResult single = exp::run_once(scenario, support::derive_seed(7, 0));
  EXPECT_DOUBLE_EQ(aggregate.quiescence_latency.mean(),
                   static_cast<double>(single.quiescence_latency));
}

TEST(Runner, AutoSyncTimeFilledIn) {
  exp::Scenario scenario;
  scenario.params = sim::LogP{2, 1, 1, 64};
  scenario.tree = topo::parse_tree_spec("binomial");
  scenario.correction.kind = CorrectionKind::kChecked;
  scenario.correction.start = CorrectionStart::kSynchronized;
  const sim::RunResult result = exp::run_once(scenario, 1);
  const sim::Time expected = fault_free_dissemination_time(
      topo::make_binomial_interleaved(64), scenario.params);
  EXPECT_EQ(result.correction_start, expected);
}

}  // namespace
}  // namespace ct::proto
