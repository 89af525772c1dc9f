// Tests for the extension surface: data-plane payload delivery, the
// collectives built from the two phases (all-reduce, barrier), physical
// placement + correlated faults (§2.1), tree relabeling, the related-work
// baselines (§5) and the LogGP model extension.

#include <gtest/gtest.h>

#include <set>

#include "experiment/runner.hpp"
#include "protocol/allreduce.hpp"
#include "protocol/baselines.hpp"
#include "protocol/tree_broadcast.hpp"
#include "sim/simulator.hpp"
#include "support/rng.hpp"
#include "topology/factory.hpp"
#include "topology/gaps.hpp"
#include "topology/placement.hpp"

namespace ct {
namespace {

using topo::Rank;

// --- Data plane -----------------------------------------------------------------

TEST(DataPlane, BroadcastDeliversPayloadToEveryLiveRank) {
  const Rank procs = 256;
  const std::int64_t payload = 0xC0FFEE;
  const topo::Tree tree = topo::make_binomial_interleaved(procs);
  const sim::LogP params{2, 1, 1, procs};

  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    support::Xoshiro256ss rng(seed);
    const sim::FaultSet faults = sim::FaultSet::random_count(procs, 12, rng);

    proto::CorrectionConfig correction;
    correction.kind = proto::CorrectionKind::kChecked;
    correction.start = proto::CorrectionStart::kSynchronized;
    correction.sync_time = proto::fault_free_dissemination_time(tree, params);
    proto::CorrectedTreeBroadcast broadcast(tree, correction, payload);

    sim::Simulator simulator(params, faults);
    sim::RunOptions options;
    options.keep_per_rank_detail = true;
    const sim::RunResult result = simulator.run(broadcast, options);
    ASSERT_TRUE(result.fully_colored()) << "seed=" << seed;
    for (Rank r = 0; r < procs; ++r) {
      if (faults.failed_from_start(r)) continue;
      EXPECT_EQ(result.rank_data[static_cast<std::size_t>(r)], payload)
          << "rank " << r << " seed " << seed
          << " was colored without receiving the payload";
    }
  }
}

TEST(DataPlane, CorrectionColoredRanksGetDataToo) {
  // Kill an inner node: its descendants are colored by correction messages
  // only — they must still learn the payload (the correction message IS the
  // broadcast message).
  const Rank procs = 64;
  const topo::Tree tree = topo::make_binomial_interleaved(procs);
  const sim::LogP params{2, 1, 1, procs};
  proto::CorrectionConfig correction;
  correction.kind = proto::CorrectionKind::kOptimizedOpportunistic;
  correction.start = proto::CorrectionStart::kOverlapped;
  correction.distance = 4;
  proto::CorrectedTreeBroadcast broadcast(tree, correction, 99);
  sim::Simulator simulator(params, sim::FaultSet::from_list(procs, {1}));
  sim::RunOptions options;
  options.keep_per_rank_detail = true;
  const sim::RunResult result = simulator.run(broadcast, options);
  ASSERT_TRUE(result.fully_colored());
  for (Rank r = 0; r < procs; ++r) {
    if (r == 1) continue;
    EXPECT_EQ(result.rank_data[static_cast<std::size_t>(r)], 99) << "rank " << r;
  }
}

// --- All-reduce and barrier --------------------------------------------------------

TEST(AllReduce, EveryLiveRankLearnsTheMax) {
  const Rank procs = 128;
  const topo::Tree tree = topo::make_binomial_interleaved(procs);
  const sim::LogP params{2, 1, 1, procs};

  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    support::Xoshiro256ss rng(seed);
    const sim::FaultSet faults = sim::FaultSet::random_count(procs, 4, rng);
    std::vector<std::int64_t> values;
    for (Rank r = 0; r < procs; ++r) {
      values.push_back(static_cast<std::int64_t>(rng.below(1'000'000)));
    }

    proto::AllReduceConfig config;
    config.reduce.distance = 2;
    config.correction.kind = proto::CorrectionKind::kChecked;
    config.correction.start = proto::CorrectionStart::kOverlapped;
    proto::CorrectedAllReduce allreduce(tree, params, values, config);
    sim::Simulator simulator(params, faults);
    sim::RunOptions options;
    options.keep_per_rank_detail = true;
    const sim::RunResult result = simulator.run(allreduce, options);

    ASSERT_TRUE(allreduce.reduction_done()) << "seed=" << seed;
    ASSERT_TRUE(result.fully_colored()) << "seed=" << seed;
    // Whatever the gather produced (its guarantee is tested separately),
    // the broadcast phase must hand the SAME result to every live rank.
    for (Rank r = 0; r < procs; ++r) {
      if (faults.failed_from_start(r)) continue;
      EXPECT_EQ(result.rank_data[static_cast<std::size_t>(r)], allreduce.result())
          << "rank " << r << " seed " << seed;
    }
  }
}

TEST(AllReduce, FaultFreeResultIsExactMax) {
  const Rank procs = 200;
  const topo::Tree tree = topo::make_lame(procs, 2);
  const sim::LogP params{2, 1, 1, procs};
  support::Xoshiro256ss rng(5);
  std::vector<std::int64_t> values;
  std::int64_t expected = 0;
  for (Rank r = 0; r < procs; ++r) {
    values.push_back(static_cast<std::int64_t>(rng.below(1u << 30)));
    expected = std::max(expected, values.back());
  }
  proto::CorrectedAllReduce allreduce(tree, params, values, {});
  sim::Simulator simulator(params, sim::FaultSet::none(procs));
  const sim::RunResult result = simulator.run(allreduce);
  EXPECT_EQ(allreduce.result(), expected);
  EXPECT_TRUE(result.fully_colored());
}

TEST(Barrier, ReleasesAllLiveRanks) {
  const Rank procs = 96;
  const topo::Tree tree = topo::make_binomial_interleaved(procs);
  const sim::LogP params{2, 1, 1, procs};
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    support::Xoshiro256ss rng(seed);
    proto::AllReduceConfig config;
    config.correction.kind = proto::CorrectionKind::kChecked;
    config.correction.start = proto::CorrectionStart::kOverlapped;
    proto::CorrectedBarrier barrier(tree, params, config);
    sim::Simulator simulator(params, sim::FaultSet::random_count(procs, 6, rng));
    const sim::RunResult result = simulator.run(barrier);
    EXPECT_TRUE(barrier.released()) << "seed=" << seed;
    EXPECT_TRUE(result.fully_colored()) << "seed=" << seed;
  }
}

// --- Placement and correlated faults -----------------------------------------------

TEST(Placement, AllPlacementsAreBijectionsFixingZero) {
  for (auto placement :
       {topo::Placement::kBlock, topo::Placement::kStriped, topo::Placement::kRandom}) {
    const auto ranks = topo::make_placement(64, 8, placement, 3);
    ASSERT_EQ(ranks.size(), 64u);
    EXPECT_EQ(ranks[0], 0);
    std::set<Rank> unique(ranks.begin(), ranks.end());
    EXPECT_EQ(unique.size(), 64u) << topo::placement_name(placement);
  }
}

TEST(Placement, StripedSpreadsNodeMates) {
  const auto ranks = topo::make_placement(64, 8, topo::Placement::kStriped);
  // Node 3 hosts pids 24..31 -> ranks {3, 11, 19, ..., 59}: spaced by 8.
  const auto node3 = topo::node_ranks(ranks, 3, 8);
  ASSERT_EQ(node3.size(), 8u);
  for (std::size_t i = 1; i < node3.size(); ++i) {
    EXPECT_EQ(node3[i] - node3[i - 1], 8);
  }
}

TEST(Placement, BlockKeepsNodeMatesTogether) {
  const auto ranks = topo::make_placement(64, 8, topo::Placement::kBlock);
  const auto node2 = topo::node_ranks(ranks, 2, 8);
  EXPECT_EQ(node2.front(), 16);
  EXPECT_EQ(node2.back(), 23);
}

TEST(Placement, StripedRequiresDivisibility) {
  EXPECT_THROW(topo::make_placement(65, 8, topo::Placement::kStriped),
               std::invalid_argument);
  EXPECT_NO_THROW(topo::make_placement(65, 8, topo::Placement::kBlock));
}

TEST(Placement, RandomIsSeededAndReproducible) {
  const auto a = topo::make_placement(128, 8, topo::Placement::kRandom, 5);
  const auto b = topo::make_placement(128, 8, topo::Placement::kRandom, 5);
  const auto c = topo::make_placement(128, 8, topo::Placement::kRandom, 6);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(CorrelatedFaults, KillsWholeNodesSparingRoot) {
  const auto ranks = topo::make_placement(64, 8, topo::Placement::kStriped);
  support::Xoshiro256ss rng(9);
  const sim::FaultSet faults = sim::FaultSet::correlated_nodes(ranks, 8, 3, rng);
  EXPECT_EQ(faults.failed_count(), 24);
  EXPECT_TRUE(faults.always_alive(0));
  // Failed ranks partition into exactly three whole nodes.
  std::set<Rank> failed;
  for (Rank r : faults.initially_failed()) failed.insert(r);
  int whole_nodes = 0;
  for (Rank node = 0; node < 8; ++node) {
    const auto members = topo::node_ranks(ranks, node, 8);
    const bool all = std::all_of(members.begin(), members.end(),
                                 [&](Rank r) { return failed.count(r) > 0; });
    const bool none = std::none_of(members.begin(), members.end(),
                                   [&](Rank r) { return failed.count(r) > 0; });
    EXPECT_TRUE(all || none) << "node " << node << " partially failed";
    whole_nodes += all;
  }
  EXPECT_EQ(whole_nodes, 3);
}

TEST(CorrelatedFaults, StripedPlacementKeepsGapsSmall) {
  // §2.1's point, end to end: one crashed node under block placement rips a
  // node_size-sized hole into the ring; striped placement leaves gaps the
  // interleaving can handle.
  const Rank procs = 1024;
  const Rank node_size = 8;
  const topo::Tree tree = topo::make_binomial_interleaved(procs);
  const sim::LogP params{2, 1, 1, procs};
  const sim::Time sync = proto::fault_free_dissemination_time(tree, params);

  auto max_gap_for = [&](topo::Placement placement, std::uint64_t seed) {
    const auto ranks = topo::make_placement(procs, node_size, placement, seed);
    support::Xoshiro256ss rng(seed);
    const sim::FaultSet faults = sim::FaultSet::correlated_nodes(ranks, node_size, 2, rng);
    proto::CorrectionConfig correction;
    correction.kind = proto::CorrectionKind::kChecked;
    correction.start = proto::CorrectionStart::kSynchronized;
    correction.sync_time = sync;
    proto::CorrectedTreeBroadcast broadcast(tree, correction);
    sim::Simulator simulator(params, faults);
    const sim::RunResult result = simulator.run(broadcast);
    EXPECT_TRUE(result.fully_colored());
    return result.dissemination_gaps.max_gap;
  };

  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    EXPECT_GE(max_gap_for(topo::Placement::kBlock, seed), node_size);
    EXPECT_LT(max_gap_for(topo::Placement::kStriped, seed), node_size);
  }
}

// --- Tree relabeling ----------------------------------------------------------------

TEST(Relabel, PreservesShapeAndMovesLabels) {
  const topo::Tree base = topo::make_binomial_interleaved(16);
  std::vector<Rank> sigma(16);
  sigma[0] = 0;
  for (Rank r = 1; r < 16; ++r) sigma[static_cast<std::size_t>(r)] = 16 - r;
  const topo::Tree relabeled = topo::relabel_tree(base, sigma);
  EXPECT_EQ(relabeled.height(), base.height());
  EXPECT_EQ(relabeled.max_fanout(), base.max_fanout());
  // children(0) = {1,2,4,8} maps to {15,14,12,8}, in the same send order.
  const auto children = relabeled.children(0);
  ASSERT_EQ(children.size(), 4u);
  EXPECT_EQ(children[0], 15);
  EXPECT_EQ(children[1], 14);
  EXPECT_EQ(children[2], 12);
  EXPECT_EQ(children[3], 8);
}

TEST(Relabel, Validation) {
  const topo::Tree base = topo::make_binomial_interleaved(8);
  EXPECT_THROW(topo::relabel_tree(base, {0, 1, 2}), std::invalid_argument);
  std::vector<Rank> not_fixing_root{1, 0, 2, 3, 4, 5, 6, 7};
  EXPECT_THROW(topo::relabel_tree(base, not_fixing_root), std::invalid_argument);
}

TEST(Relabel, RandomRenumberingStillBroadcastsCorrectly) {
  // The §2.1 random-renumbering trick: the relabeled tree is a valid
  // broadcast tree (coloring everyone) even though it forfeits Definition 1.
  const Rank procs = 200;
  const auto sigma = topo::make_placement(procs, 1, topo::Placement::kRandom, 11);
  const topo::Tree tree =
      topo::relabel_tree(topo::make_binomial_interleaved(procs), sigma);
  proto::CorrectionConfig correction;
  correction.kind = proto::CorrectionKind::kChecked;
  correction.start = proto::CorrectionStart::kOverlapped;
  proto::CorrectedTreeBroadcast broadcast(tree, correction);
  support::Xoshiro256ss rng(3);
  sim::Simulator simulator(sim::LogP{2, 1, 1, procs},
                           sim::FaultSet::random_count(procs, 10, rng));
  EXPECT_TRUE(simulator.run(broadcast).fully_colored());
}

// --- Related-work baselines -----------------------------------------------------------

TEST(DetectorBaseline, FaultFreeBehavesLikePlainTree) {
  const Rank procs = 128;
  const topo::Tree tree = topo::make_binomial_interleaved(procs);
  const sim::LogP params{2, 1, 1, procs};
  proto::DetectorTreeBroadcast broadcast(tree, params, 7);
  sim::Simulator simulator(params, sim::FaultSet::none(procs));
  const sim::RunResult result = simulator.run(broadcast);
  EXPECT_TRUE(result.fully_colored());
  EXPECT_EQ(result.total_messages, procs - 1);  // no pulls fired
}

TEST(DetectorBaseline, RecoversFromFailuresViaPulls) {
  const Rank procs = 128;
  const topo::Tree tree = topo::make_binomial_interleaved(procs);
  const sim::LogP params{2, 1, 1, procs};
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    support::Xoshiro256ss rng(seed);
    proto::DetectorTreeBroadcast broadcast(tree, params, 7);
    sim::Simulator simulator(params, sim::FaultSet::random_count(procs, 8, rng));
    sim::RunOptions options;
    options.keep_per_rank_detail = true;
    const sim::RunResult result = simulator.run(broadcast, options);
    EXPECT_TRUE(result.fully_colored()) << "seed=" << seed;
    for (Rank r = 0; r < procs; ++r) {
      if (result.colored_at[static_cast<std::size_t>(r)] != sim::kTimeNever) {
        EXPECT_EQ(result.rank_data[static_cast<std::size_t>(r)], 7);
      }
    }
  }
}

TEST(DetectorBaseline, PaysDetectionLatencyThatCorrectedTreesAvoid) {
  // §5: detector-based recovery stalls for the timeout; corrected trees
  // tolerate the same failure proactively.
  const Rank procs = 256;
  const topo::Tree tree = topo::make_binomial_interleaved(procs);
  const sim::LogP params{2, 1, 1, procs};
  const sim::FaultSet faults = sim::FaultSet::from_list(procs, {1});

  proto::DetectorTreeBroadcast detector(tree, params, 0);
  sim::Simulator detector_sim(params, faults);
  const sim::RunResult detector_result = detector_sim.run(detector);

  proto::CorrectionConfig correction;
  correction.kind = proto::CorrectionKind::kChecked;
  correction.start = proto::CorrectionStart::kOverlapped;
  proto::CorrectedTreeBroadcast corrected(tree, correction);
  sim::Simulator corrected_sim(params, faults);
  const sim::RunResult corrected_result = corrected_sim.run(corrected);

  ASSERT_TRUE(detector_result.fully_colored());
  ASSERT_TRUE(corrected_result.fully_colored());
  EXPECT_GT(detector_result.coloring_latency, corrected_result.coloring_latency);
}

TEST(MultiTree, RotatedTreesShareFewInnerNodes) {
  const Rank procs = 256;
  const auto trees = proto::make_rotated_trees(procs, 2);
  ASSERT_EQ(trees.size(), 2u);
  Rank inner_in_both = 0;
  for (Rank r = 1; r < procs; ++r) {
    if (!trees[0].children(r).empty() && !trees[1].children(r).empty()) {
      ++inner_in_both;
    }
  }
  EXPECT_LT(inner_in_both, procs / 4);
}

TEST(MultiTree, FaultFreeDoublesMessages) {
  const Rank procs = 128;
  proto::MultiTreeBroadcast broadcast(proto::make_rotated_trees(procs, 2), 5);
  sim::Simulator simulator(sim::LogP{2, 1, 1, procs}, sim::FaultSet::none(procs));
  const sim::RunResult result = simulator.run(broadcast);
  EXPECT_TRUE(result.fully_colored());
  EXPECT_EQ(result.total_messages, 2 * (procs - 1));
}

TEST(MultiTree, LeafInSomeTreeVictimsCannotHurt) {
  // If the victim is a leaf of at least one tree, that tree alone reaches
  // every other process — full coloring is structural, not probabilistic.
  const Rank procs = 128;
  const auto trees = proto::make_rotated_trees(procs, 2);
  int tested = 0;
  for (Rank victim = 1; victim < procs && tested < 40; ++victim) {
    const bool leaf_somewhere =
        trees[0].children(victim).empty() || trees[1].children(victim).empty();
    if (!leaf_somewhere) continue;
    ++tested;
    proto::MultiTreeBroadcast broadcast(proto::make_rotated_trees(procs, 2), 5);
    sim::Simulator simulator(sim::LogP{2, 1, 1, procs},
                             sim::FaultSet::from_list(procs, {victim}));
    const sim::RunResult result = simulator.run(broadcast);
    EXPECT_EQ(result.uncolored_live, 0) << "victim " << victim;
  }
  EXPECT_GT(tested, 20);
}

// --- LogGP model extension --------------------------------------------------------------

TEST(LogGP, DefaultsDegenerateToLogP) {
  const sim::LogP p{2, 1, 1, 4};
  EXPECT_EQ(p.overhead_time(), p.o);
  EXPECT_EQ(p.wire_time(), p.L);
  EXPECT_EQ(p.message_cost(), 2 * p.o + p.L);
}

TEST(LogGP, PerByteCostsApply) {
  sim::LogP p{10, 2, 1, 4};
  p.G = 3;
  p.O = 1;
  p.bytes = 5;
  p.validate();
  // LogGP injection: send_cost(k) = o + (k-1)G; overhead adds (k-1)O of CPU.
  EXPECT_EQ(p.send_cost(p.bytes), 2 + 3 * 4);
  EXPECT_EQ(p.overhead_time(), (2 + 3 * 4) + 1 * 4);
  EXPECT_EQ(p.wire_time(), 10);  // pure latency; serialisation is injection cost
  EXPECT_EQ(p.message_cost(), 2 * 18 + 10);
  EXPECT_EQ(p.port_period(), 18);  // injection+processing dominates g
}

TEST(LogGP, Validation) {
  sim::LogP p{2, 1, 1, 4};
  p.bytes = 0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p.bytes = 1;
  p.G = -1;
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(LogGP, SimulatorHonoursMessageSize) {
  // One message, 8 bytes, G=2, O=1: received at 2*(send_cost(8)+7O) + L
  // with send_cost(8) = o + 7G (LogGP injection on both ports).
  sim::LogP p{4, 1, 1, 2};
  p.G = 2;
  p.O = 1;
  p.bytes = 8;

  struct Probe : sim::Protocol {
    sim::Time received = -1;
    void begin(sim::Context& ctx) override { ctx.send(0, 1, 1, 0); }
    void on_receive(sim::Context& ctx, Rank, const sim::Message&) override {
      received = ctx.now();
    }
    void on_sent(sim::Context&, Rank, const sim::Message&) override {}
  } probe;

  sim::Simulator simulator(p, sim::FaultSet::none(2));
  simulator.run(probe);
  EXPECT_EQ(probe.received, 2 * ((1 + 7 * 2) + 7 * 1) + 4);
}

TEST(LogGP, LargeMessagesSlowTheBroadcastProportionally) {
  const Rank procs = 256;
  const topo::Tree tree = topo::make_binomial_interleaved(procs);
  sim::LogP small{2, 1, 1, procs};
  sim::LogP large = small;
  large.G = 1;
  large.O = 1;
  large.bytes = 16;
  const sim::Time t_small = proto::fault_free_dissemination_time(tree, small);
  const sim::Time t_large = proto::fault_free_dissemination_time(tree, large);
  EXPECT_GT(t_large, 4 * t_small);
}

}  // namespace
}  // namespace ct

// NOTE: appended suite — two-level locality (node-aware latency).
namespace ct {
namespace {

using topo::Rank;

std::vector<std::int32_t> node_map_of(const std::vector<Rank>& rank_of_pid,
                                      Rank node_size) {
  std::vector<std::int32_t> node_of_rank(rank_of_pid.size());
  for (std::size_t pid = 0; pid < rank_of_pid.size(); ++pid) {
    node_of_rank[static_cast<std::size_t>(rank_of_pid[pid])] =
        static_cast<std::int32_t>(pid / static_cast<std::size_t>(node_size));
  }
  return node_of_rank;
}

TEST(Locality, IntraNodeMessagesAreFaster) {
  sim::LogP p{10, 1, 1, 4};
  sim::Locality locality;
  locality.node_of_rank = {0, 0, 1, 1};  // ranks 0,1 share a node
  locality.L_intra = 1;

  struct Probe : sim::Protocol {
    sim::Time local = -1, remote = -1;
    void begin(sim::Context& ctx) override {
      ctx.send(0, 1, 1, 0);  // same node
      ctx.send(2, 3, 1, 0);  // same node (other)
      ctx.send(1, 2, 1, 0);  // cross node
    }
    void on_receive(sim::Context& ctx, Rank me, const sim::Message& msg) override {
      if (msg.src == 0) local = ctx.now();
      if (msg.src == 1 && me == 2) remote = ctx.now();
    }
    void on_sent(sim::Context&, Rank, const sim::Message&) override {}
  } probe;

  sim::Simulator simulator(p, sim::FaultSet::none(4), locality);
  simulator.run(probe);
  EXPECT_EQ(probe.local, 2 * p.o + locality.L_intra);
  EXPECT_EQ(probe.remote, 2 * p.o + p.L);
}

TEST(Locality, Validation) {
  sim::LogP p{2, 1, 1, 4};
  sim::Locality bad_size;
  bad_size.node_of_rank = {0, 0};
  EXPECT_THROW(sim::Simulator(p, sim::FaultSet::none(4), bad_size),
               std::invalid_argument);
  sim::Locality bad_latency;
  bad_latency.node_of_rank = {0, 0, 1, 1};
  bad_latency.L_intra = 5;  // > L
  EXPECT_THROW(sim::Simulator(p, sim::FaultSet::none(4), bad_latency),
               std::invalid_argument);
}

TEST(Locality, PlacementTradeOffIsReal) {
  // Under node-aware latency the ring-friendly choices cost dissemination
  // speed (§2.1 + §6 tension): the IN-ORDER tree with BLOCK placement keeps
  // its offset-1 DFS edges on-node and disseminates fastest, while striping
  // the same tree makes every edge remote. The interleaved tree — whose
  // critical path uses large offsets only — is locality-neutral.
  const Rank procs = 512;
  const Rank node_size = 8;
  sim::LogP params{6, 1, 1, procs};

  auto dissemination_under = [&](const char* spec, topo::Placement placement) {
    const topo::Tree tree = topo::make_tree(topo::parse_tree_spec(spec), procs);
    const auto rank_of_pid = topo::make_placement(procs, node_size, placement, 1);
    sim::Locality locality;
    locality.node_of_rank = node_map_of(rank_of_pid, node_size);
    locality.L_intra = 1;
    proto::CorrectionConfig none;
    none.kind = proto::CorrectionKind::kNone;
    proto::CorrectedTreeBroadcast broadcast(tree, none);
    sim::Simulator simulator(params, sim::FaultSet::none(procs), locality);
    return simulator.run(broadcast).coloring_latency;
  };

  const sim::Time inorder_block =
      dissemination_under("binomial-inorder", topo::Placement::kBlock);
  const sim::Time inorder_striped =
      dissemination_under("binomial-inorder", topo::Placement::kStriped);
  const sim::Time interleaved_block =
      dissemination_under("binomial", topo::Placement::kBlock);
  const sim::Time interleaved_striped =
      dissemination_under("binomial", topo::Placement::kStriped);

  EXPECT_LT(inorder_block, inorder_striped);
  EXPECT_LT(inorder_block, interleaved_block);
  // The interleaved tree pays (almost) nothing for striping.
  EXPECT_LE(interleaved_striped, interleaved_block + params.L);
}

}  // namespace
}  // namespace ct
