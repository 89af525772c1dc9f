// Runtime stress: many epochs × many ranks × random fault sets, sized for
// the `sanitize` ctest label (the tsan preset runs exactly these tests).
// The point is not the protocol outcome — the shard-boundary suite covers
// that — but hammering the concurrency machinery: cross-shard ring batches
// and their staged retries, the epoch barrier, the window-slot handshakes,
// and completion counting.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <vector>

#include "protocol/tree_broadcast.hpp"
#include "rt/engine.hpp"
#include "support/rng.hpp"
#include "topology/factory.hpp"

namespace ct::rt {
namespace {

using topo::Rank;

proto::CorrectionConfig checked_overlapped() {
  // Checked correction keeps probing until live neighbours answer, so it
  // recovers any fault placement — no gap-size precondition to maintain
  // while the RNG varies the failure sets.
  proto::CorrectionConfig config;
  config.kind = proto::CorrectionKind::kChecked;
  config.start = proto::CorrectionStart::kOverlapped;
  return config;
}

std::vector<char> random_faults(Rank procs, Rank count, support::Xoshiro256ss& rng) {
  std::vector<char> failed(static_cast<std::size_t>(procs), 0);
  Rank placed = 0;
  while (placed < count) {
    const auto victim = static_cast<std::size_t>(
        1 + rng.below(static_cast<std::uint64_t>(procs) - 1));
    if (!failed[victim]) {
      failed[victim] = 1;
      ++placed;
    }
  }
  return failed;
}

TEST(RtStress, ShardedManyEpochsManyRanksRandomFaults) {
  const Rank procs = 96;
  const topo::Tree tree = topo::make_binomial_interleaved(procs);
  support::Xoshiro256ss rng(0xC0FFEE);
  for (int config = 0; config < 3; ++config) {
    const std::vector<char> failed = random_faults(procs, 8, rng);
    EngineOptions options;
    options.workers = 4;  // forces real cross-shard traffic even on 1 core
    Engine engine(procs, failed, options);
    for (int epoch = 0; epoch < 6; ++epoch) {
      proto::CorrectedTreeBroadcast protocol(tree, checked_overlapped());
      const EpochResult result = engine.run_epoch(protocol, std::chrono::seconds(60));
      ASSERT_FALSE(result.timed_out) << "config " << config << " epoch " << epoch;
      EXPECT_EQ(result.uncolored_live, 0) << "config " << config << " epoch " << epoch;
    }
  }
}

TEST(RtStress, ShardedTinyInboxBackpressure) {
  // Capacity-starved rings force partial flushes and retry loops across
  // epochs — the staged-overflow path must stay race-free too.
  const Rank procs = 64;
  const topo::Tree tree = topo::make_binomial_interleaved(procs);
  EngineOptions options;
  options.workers = 4;
  options.mesh_capacity = 4;
  Engine engine(procs, std::vector<char>(static_cast<std::size_t>(procs), 0), options);
  for (int epoch = 0; epoch < 6; ++epoch) {
    proto::CorrectedTreeBroadcast protocol(tree, checked_overlapped());
    const EpochResult result = engine.run_epoch(protocol, std::chrono::seconds(60));
    ASSERT_FALSE(result.timed_out) << "epoch " << epoch;
    EXPECT_EQ(result.uncolored_live, 0) << "epoch " << epoch;
  }
  // Streamed epochs retry through the same staged path, with four window
  // slots' traffic sharing the starved rings.
  StreamOptions stream;
  stream.epochs = 12;
  stream.window = 4;
  stream.epoch_timeout = std::chrono::seconds(60);
  const StreamResult streamed = engine.run_stream(
      [&] {
        return std::make_unique<proto::CorrectedTreeBroadcast>(tree, checked_overlapped());
      },
      stream);
  ASSERT_EQ(streamed.epochs.size(), 12u);
  for (const StreamEpoch& epoch : streamed.epochs) {
    ASSERT_FALSE(epoch.timed_out) << "stream epoch " << epoch.epoch;
    EXPECT_EQ(epoch.uncolored, 0) << "stream epoch " << epoch.epoch;
  }
}

TEST(RtStress, ShardedChaosSoakCrashDropDelay) {
  // Chaos mode (DESIGN.md §4d): mid-epoch crashes plus link perturbations
  // over many epochs. The assertion is purely about the machinery — every
  // epoch terminates (deadline, not hang), every never-crashed survivor is
  // colored under checked correction, and the crash bookkeeping balances.
  // Sized so the tsan preset (5-20× slowdown, 1-core box) stays within the
  // 600 s test timeout.
  const Rank procs = 512;
  const topo::Tree tree = topo::make_binomial_interleaved(procs);
  EngineOptions options;
  options.workers = 4;
  Engine engine(procs, std::vector<char>(static_cast<std::size_t>(procs), 0),
                options);
  ChaosOptions chaos;
  chaos.seed = 0x50A1u;
  chaos.crash_fraction = 0.02;
  chaos.drop_prob = 0.01;
  chaos.delay_prob = 0.01;
  chaos.delay_ns = 100'000;
  engine.set_chaos(ChaosPlan(chaos));
  std::int64_t crashes = 0;
  for (int epoch = 0; epoch < 25; ++epoch) {
    proto::CorrectedTreeBroadcast protocol(tree, checked_overlapped());
    const EpochResult result = engine.run_epoch(protocol, std::chrono::seconds(5));
    ASSERT_FALSE(result.timed_out) << "epoch " << epoch;
    EXPECT_EQ(result.uncolored_live, 0) << "epoch " << epoch;
    ASSERT_EQ(result.crashed_mid_epoch,
              static_cast<std::int32_t>(result.crashed_ranks.size()));
    crashes += result.crashed_mid_epoch;
  }
  EXPECT_GT(crashes, 0);  // 2% of 512 ranks over 25 epochs
}

}  // namespace
}  // namespace ct::rt
