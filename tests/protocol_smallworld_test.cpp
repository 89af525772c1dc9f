// Small-world sweep: tiny process counts exercise every ring-wraparound and
// degenerate-tree path (P = 1, 2, 3 rings where "left" and "right" collide,
// correction distances exceeding P, trees that are a single chain or a
// star). Every correction kind must terminate and color everything in the
// fault-free case, and the checked/failure-proof kinds under faults too.

#include <gtest/gtest.h>

#include <tuple>

#include "experiment/runner.hpp"
#include "protocol/allreduce.hpp"
#include "protocol/baselines.hpp"
#include "protocol/tree_broadcast.hpp"
#include "sim/simulator.hpp"
#include "topology/factory.hpp"

namespace ct::proto {
namespace {

using topo::Rank;

class SmallWorldTest
    : public ::testing::TestWithParam<std::tuple<Rank, std::string, CorrectionKind>> {};

TEST_P(SmallWorldTest, FaultFreeColorsAndTerminates) {
  const auto [procs, tree, kind] = GetParam();
  exp::Scenario scenario;
  scenario.params = sim::LogP{2, 1, 1, procs};
  scenario.tree = topo::parse_tree_spec(tree);
  scenario.correction.kind = kind;
  scenario.correction.start = kind == CorrectionKind::kChecked ||
                                      kind == CorrectionKind::kFailureProof ||
                                      kind == CorrectionKind::kDelayed
                                  ? CorrectionStart::kSynchronized
                                  : CorrectionStart::kOverlapped;
  scenario.correction.distance = 4;  // > P for the smallest cases
  scenario.correction.delay = 2 * scenario.params.message_cost();
  if (scenario.correction.start == CorrectionStart::kSynchronized && procs == 1) {
    // A single process disseminates instantly; sync time 0 is rejected by
    // design — use overlapped there.
    scenario.correction.start = CorrectionStart::kOverlapped;
  }
  sim::RunOptions options;
  options.max_events = 2'000'000;  // termination guard for tiny rings
  const sim::RunResult result = exp::run_once(scenario, 1, options);
  EXPECT_TRUE(result.fully_colored())
      << "P=" << procs << " tree=" << tree << " correction="
      << correction_kind_name(kind) << " left " << result.uncolored_live;
}

INSTANTIATE_TEST_SUITE_P(
    TinyWorlds, SmallWorldTest,
    ::testing::Combine(::testing::Values<Rank>(1, 2, 3, 4, 5, 7),
                       ::testing::Values("binomial", "kary:2", "lame:2"),
                       ::testing::Values(CorrectionKind::kNone,
                                         CorrectionKind::kOpportunistic,
                                         CorrectionKind::kOptimizedOpportunistic,
                                         CorrectionKind::kChecked,
                                         CorrectionKind::kFailureProof,
                                         CorrectionKind::kDelayed)),
    [](const auto& info) {
      std::string name = "P" + std::to_string(std::get<0>(info.param)) + "_" +
                         std::get<1>(info.param) + "_" +
                         correction_kind_name(std::get<2>(info.param));
      for (char& ch : name) {
        if (ch == ':' || ch == '-') ch = '_';
      }
      return name;
    });

TEST(SmallWorld, CheckedSurvivesMaximalFaultsOnTinyRings) {
  // All but the root dead: correction has nobody to color, but must still
  // terminate quietly.
  for (Rank procs : {2, 3, 5}) {
    std::vector<Rank> victims;
    for (Rank r = 1; r < procs; ++r) victims.push_back(r);
    const topo::Tree tree = topo::make_binomial_interleaved(procs);
    const sim::LogP params{2, 1, 1, procs};
    CorrectionConfig config;
    config.kind = CorrectionKind::kChecked;
    config.start = CorrectionStart::kSynchronized;
    config.sync_time = fault_free_dissemination_time(tree, params);
    CorrectedTreeBroadcast broadcast(tree, config);
    sim::Simulator simulator(params, sim::FaultSet::from_list(procs, victims));
    const sim::RunResult result = simulator.run(broadcast);
    EXPECT_TRUE(result.fully_colored()) << "P=" << procs;  // root only
    EXPECT_EQ(result.uncolored_live, 0);
  }
}

TEST(SmallWorld, SingleSurvivorPairs) {
  // P = 2 with rank 1 dead, and P = 2 fault-free, across all corrections.
  for (CorrectionKind kind :
       {CorrectionKind::kOpportunistic, CorrectionKind::kChecked,
        CorrectionKind::kFailureProof, CorrectionKind::kDelayed}) {
    for (bool kill : {false, true}) {
      const topo::Tree tree = topo::make_binomial_interleaved(2);
      const sim::LogP params{2, 1, 1, 2};
      CorrectionConfig config;
      config.kind = kind;
      config.start = CorrectionStart::kOverlapped;
      config.distance = 3;
      config.delay = 8;
      CorrectedTreeBroadcast broadcast(tree, config);
      sim::Simulator simulator(params, kill ? sim::FaultSet::from_list(2, {1})
                                            : sim::FaultSet::none(2));
      const sim::RunResult result = simulator.run(broadcast);
      EXPECT_TRUE(result.fully_colored()) << correction_kind_name(kind) << " kill=" << kill;
    }
  }
}

TEST(SmallWorld, CollectivesOnTinyTrees) {
  for (Rank procs : {1, 2, 3, 5}) {
    const topo::Tree tree = topo::make_binomial_interleaved(procs);
    const sim::LogP params{2, 1, 1, procs};
    std::vector<std::int64_t> values;
    for (Rank r = 0; r < procs; ++r) values.push_back(r * 10);

    AllReduceConfig config;
    config.correction.kind = CorrectionKind::kChecked;
    config.correction.start = CorrectionStart::kOverlapped;
    CorrectedAllReduce allreduce(tree, params, values, config);
    sim::Simulator simulator(params, sim::FaultSet::none(procs));
    const sim::RunResult result = simulator.run(allreduce);
    EXPECT_TRUE(result.fully_colored()) << "P=" << procs;
    EXPECT_EQ(allreduce.result(), (procs - 1) * 10) << "P=" << procs;
  }
}

TEST(SmallWorld, BaselinesOnTinyTrees) {
  for (Rank procs : {1, 2, 3}) {
    const topo::Tree tree = topo::make_binomial_interleaved(procs);
    const sim::LogP params{2, 1, 1, procs};
    {
      DetectorTreeBroadcast detector(tree, params);
      sim::Simulator simulator(params, sim::FaultSet::none(procs));
      EXPECT_TRUE(simulator.run(detector).fully_colored()) << "P=" << procs;
    }
    {
      MultiTreeBroadcast multi(make_rotated_trees(procs, 2));
      sim::Simulator simulator(params, sim::FaultSet::none(procs));
      EXPECT_TRUE(simulator.run(multi).fully_colored()) << "P=" << procs;
    }
  }
}

}  // namespace
}  // namespace ct::proto
