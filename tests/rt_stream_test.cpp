// Streaming broadcast (PR8): pipelined epochs through the sharded
// executor's window slots, chunked payloads, open-loop admission, and the
// sim/rt survivor-coloring parity under mid-stream crashes. Rank counts
// stay small — the suite shares one CPU with everything else.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <vector>

#include "experiment/run_spec.hpp"
#include "protocol/ack_tree.hpp"
#include "protocol/stream_mux.hpp"
#include "protocol/tree_broadcast.hpp"
#include "rt/harness.hpp"
#include "sim/simulator.hpp"
#include "topology/factory.hpp"

namespace ct::rt {
namespace {

using topo::Rank;

std::vector<char> no_failures(Rank procs) {
  return std::vector<char>(static_cast<std::size_t>(procs), 0);
}

proto::CorrectionConfig opportunistic(int distance) {
  proto::CorrectionConfig config;
  config.kind = proto::CorrectionKind::kOptimizedOpportunistic;
  config.start = proto::CorrectionStart::kOverlapped;
  config.distance = distance;
  return config;
}

ProtocolFactory tree_factory(const topo::Tree& tree, proto::CorrectionConfig config,
                             std::int32_t chunks = 1) {
  return [&tree, config, chunks] {
    return std::make_unique<proto::CorrectedTreeBroadcast>(tree, config, 0, nullptr,
                                                           nullptr, chunks);
  };
}

TEST(RtStream, WindowedStreamColorsEveryEpoch) {
  const Rank procs = 24;
  const topo::Tree tree = topo::make_binomial_interleaved(procs);
  Engine engine(procs, no_failures(procs));
  StreamOptions options;
  options.epochs = 12;
  options.window = 4;
  options.epoch_timeout = std::chrono::seconds(20);
  const StreamHarnessResult result =
      measure_stream(engine, tree_factory(tree, opportunistic(2)), options);
  EXPECT_EQ(result.epochs, 12);
  EXPECT_EQ(result.timeouts, 0);
  EXPECT_EQ(result.incomplete, 0);
  EXPECT_EQ(result.deliveries, 12 * procs);
  EXPECT_GT(result.deliveries_per_sec(), 0.0);
  EXPECT_GE(result.p999_us(), result.p50_us());
  // Every epoch retired after it began, and begin follows admission.
  for (const StreamEpoch& epoch : result.raw.epochs) {
    EXPECT_GE(epoch.begin_ns, epoch.admitted_ns);
    EXPECT_GT(epoch.retire_ns, epoch.begin_ns);
    EXPECT_EQ(epoch.uncolored, 0);
  }
}

TEST(RtStream, WindowOneMatchesOneShotSemantics) {
  const Rank procs = 16;
  const topo::Tree tree = topo::make_binomial_interleaved(procs);
  Engine engine(procs, no_failures(procs));

  StreamOptions options;
  options.epochs = 6;
  options.window = 1;
  options.epoch_timeout = std::chrono::seconds(20);
  const StreamHarnessResult stream =
      measure_stream(engine, tree_factory(tree, opportunistic(2)), options);
  EXPECT_EQ(stream.timeouts, 0);
  EXPECT_EQ(stream.incomplete, 0);

  // The same protocol through run_epoch: identical message counts per epoch
  // — W = 1 streaming is the one-shot schedule minus the barrier bracket.
  proto::CorrectedTreeBroadcast one_shot(tree, opportunistic(2));
  const EpochResult epoch = engine.run_epoch(one_shot, std::chrono::seconds(20));
  EXPECT_FALSE(epoch.timed_out);
  for (const StreamEpoch& streamed : stream.raw.epochs) {
    EXPECT_EQ(streamed.messages, epoch.total_messages);
  }
  // W = 1 serializes: epochs retire in admission order.
  for (std::size_t i = 1; i < stream.raw.epochs.size(); ++i) {
    EXPECT_GE(stream.raw.epochs[i].begin_ns, stream.raw.epochs[i - 1].retire_ns);
  }
}

TEST(RtStream, FailedRanksAreExcludedEveryEpoch) {
  const Rank procs = 20;
  const topo::Tree tree = topo::make_binomial_interleaved(procs);
  std::vector<char> failed = no_failures(procs);
  failed[3] = failed[11] = 1;
  Engine engine(procs, failed);
  StreamOptions options;
  options.epochs = 8;
  options.window = 4;
  options.epoch_timeout = std::chrono::seconds(20);
  const StreamHarnessResult result =
      measure_stream(engine, tree_factory(tree, opportunistic(4)), options);
  EXPECT_EQ(result.timeouts, 0);
  EXPECT_EQ(result.incomplete, 0);
  EXPECT_EQ(result.deliveries, 8 * (procs - 2));
}

TEST(RtStream, FullWindowBlocksArrivalsInsteadOfDropping) {
  const Rank procs = 16;
  const topo::Tree tree = topo::make_binomial_interleaved(procs);
  Engine engine(procs, no_failures(procs));
  StreamOptions options;
  options.epochs = 16;
  options.window = 2;
  // Offered rate far beyond what a 16-rank broadcast sustains on this host:
  // the window saturates immediately. Backpressure must queue (block) the
  // surplus arrivals, never shed them.
  options.rate = 1e6;
  options.epoch_timeout = std::chrono::seconds(20);
  const StreamHarnessResult result =
      measure_stream(engine, tree_factory(tree, opportunistic(2)), options);
  // Every offered epoch was admitted and retired — nothing dropped.
  EXPECT_EQ(result.epochs, 16);
  EXPECT_EQ(result.timeouts, 0);
  EXPECT_EQ(result.deliveries, 16 * procs);
  std::int64_t last_epoch = -1;
  for (const StreamEpoch& epoch : result.raw.epochs) {
    EXPECT_GT(epoch.epoch, last_epoch);  // admission order, none missing
    last_epoch = epoch.epoch;
    // Scheduled times follow the offered arrival process even when
    // admission lags: sojourn >= service surfaces the queueing delay.
    EXPECT_GE(epoch.admitted_ns, epoch.scheduled_ns);
    EXPECT_GE(epoch.sojourn_ns(), epoch.service_ns());
  }
}

TEST(RtStream, ChunkedStreamDeliversAllChunksBeforeColoring) {
  const Rank procs = 12;
  const std::int32_t chunks = 5;
  const topo::Tree tree = topo::make_binomial_interleaved(procs);
  Engine engine(procs, no_failures(procs));
  StreamOptions options;
  options.epochs = 6;
  options.window = 3;
  options.epoch_timeout = std::chrono::seconds(20);
  proto::CorrectionConfig none;
  none.kind = proto::CorrectionKind::kNone;
  const StreamHarnessResult result =
      measure_stream(engine, tree_factory(tree, none, chunks), options);
  EXPECT_EQ(result.timeouts, 0);
  EXPECT_EQ(result.incomplete, 0);
  // Fault-free chunked tree without correction: every tree edge carries
  // each chunk exactly once, so the wire count is chunks × the unchunked
  // count — and coloring everyone proves held-mask gating saw all chunks.
  for (const StreamEpoch& epoch : result.raw.epochs) {
    EXPECT_EQ(epoch.messages, static_cast<std::int64_t>(chunks) * (procs - 1));
  }
}

TEST(RtStream, AckTreeStreamsChunked) {
  const Rank procs = 12;
  const std::int32_t chunks = 3;
  const topo::Tree tree = topo::make_binomial_interleaved(procs);
  Engine engine(procs, no_failures(procs));
  StreamOptions options;
  options.epochs = 4;
  options.window = 2;
  options.epoch_timeout = std::chrono::seconds(20);
  const StreamHarnessResult result = measure_stream(
      engine,
      [&tree, chunks] {
        return std::make_unique<proto::AckTreeBroadcast>(tree, nullptr, chunks);
      },
      options);
  EXPECT_EQ(result.timeouts, 0);
  EXPECT_EQ(result.incomplete, 0);
  // Each tree edge carries every chunk; the upward ack wave is partial —
  // the epoch retires when every rank is colored with its sends drained,
  // which can precede ancestors *reacting* to late acks (one-shot epochs
  // truncate the same tail).
  const auto edges = static_cast<std::int64_t>(procs - 1);
  for (const StreamEpoch& epoch : result.raw.epochs) {
    EXPECT_GE(epoch.messages, static_cast<std::int64_t>(chunks) * edges);
    EXPECT_LE(epoch.messages, static_cast<std::int64_t>(chunks + 1) * edges);
  }
}

TEST(RtStream, StreamThenOneShotEpochStaysClean) {
  const Rank procs = 16;
  const topo::Tree tree = topo::make_binomial_interleaved(procs);
  Engine engine(procs, no_failures(procs));
  StreamOptions options;
  options.epochs = 5;
  options.window = 4;
  options.epoch_timeout = std::chrono::seconds(20);
  const StreamHarnessResult stream =
      measure_stream(engine, tree_factory(tree, opportunistic(2)), options);
  EXPECT_EQ(stream.timeouts, 0);
  // The engine must come back from stream mode able to run plain epochs.
  proto::CorrectedTreeBroadcast protocol(tree, opportunistic(2));
  const EpochResult epoch = engine.run_epoch(protocol, std::chrono::seconds(20));
  EXPECT_FALSE(epoch.timed_out);
  EXPECT_EQ(epoch.uncolored_live, 0);
}

TEST(RtStream, MidStreamKillsMatchSimSurvivorColoring) {
  const Rank procs = 18;
  const std::vector<Rank> victims = {5, 9};
  const topo::Tree tree = topo::make_binomial_interleaved(procs);

  // rt side: kill the victims early in every epoch of a W = 3 stream.
  Engine engine(procs, no_failures(procs));
  ChaosPlan plan;
  for (const Rank victim : victims) plan.kill_at_ns(victim, 0);
  engine.set_chaos(std::move(plan));
  StreamOptions options;
  options.epochs = 9;
  options.window = 3;
  options.keep_rank_state = true;
  options.epoch_timeout = std::chrono::seconds(20);
  const StreamHarnessResult rt_result =
      measure_stream(engine, tree_factory(tree, opportunistic(4)), options);
  EXPECT_EQ(rt_result.timeouts, 0);

  // sim side: the same spec streamed through proto::StreamMux (kill= maps
  // to FaultSet deaths at t = 1, before any first receive completes).
  exp::RunSpec spec;
  spec.tree = topo::TreeSpec{topo::TreeKind::kBinomialInterleaved};
  spec.correction = opportunistic(4);
  spec.params.P = procs;
  spec.faults.kill = victims;
  spec.window = 3;
  spec.reps = 9;
  const exp::RunRecord sim_result = exp::run(spec);
  EXPECT_EQ(sim_result.runs, 9);
  EXPECT_EQ(sim_result.incomplete, 0);
  EXPECT_TRUE(sim_result.uncolored_survivors.empty());
  EXPECT_EQ(sim_result.crashed_ranks, victims);
  EXPECT_EQ(sim_result.ranks_crashed, static_cast<std::int64_t>(victims.size()) * 9);

  // Parity: every streamed epoch colors exactly the survivors, both sides.
  for (const StreamEpoch& epoch : rt_result.raw.epochs) {
    EXPECT_EQ(epoch.crashed, static_cast<std::int32_t>(victims.size()));
    EXPECT_EQ(epoch.uncolored, 0);
    ASSERT_EQ(epoch.rank_state.size(), static_cast<std::size_t>(procs));
    for (Rank r = 0; r < procs; ++r) {
      const bool is_victim =
          std::find(victims.begin(), victims.end(), r) != victims.end();
      EXPECT_EQ(epoch.rank_state[static_cast<std::size_t>(r)],
                is_victim ? RankEnd::kCrashed : RankEnd::kColored)
          << "rank " << r;
    }
  }
}

// Direct StreamMux coverage: windowed sim streams color every survivor in
// every epoch, and the closed-loop window genuinely pipelines (later epochs
// admitted before earlier ones retire).
TEST(SimStream, StreamMuxColorsSurvivorsEveryEpoch) {
  const Rank procs = 18;
  const std::vector<Rank> victims = {5, 9};
  const topo::Tree tree = topo::make_binomial_interleaved(procs);
  sim::FaultSet faults = sim::FaultSet::none(procs);
  for (const Rank victim : victims) faults.kill_at(victim, 1);

  proto::StreamMuxOptions mux_options;
  mux_options.epochs = 9;
  mux_options.window = 3;
  mux_options.excluded.assign(static_cast<std::size_t>(procs), 0);
  for (const Rank victim : victims) {
    mux_options.excluded[static_cast<std::size_t>(victim)] = 1;
  }
  proto::StreamMux mux(
      [&] {
        return std::make_unique<proto::CorrectedTreeBroadcast>(tree, opportunistic(4));
      },
      mux_options);
  sim::Simulator simulator(sim::LogP{.P = procs}, &faults);
  simulator.run(mux, sim::RunOptions{});

  ASSERT_EQ(mux.retired_count(), 9);
  sim::Time previous_retire = -1;
  for (std::size_t e = 0; e < mux.epochs().size(); ++e) {
    const proto::StreamMuxEpoch& epoch = mux.epochs()[e];
    ASSERT_TRUE(epoch.complete());
    EXPECT_EQ(epoch.colored, procs - static_cast<Rank>(victims.size()));
    EXPECT_GE(epoch.retired, epoch.admitted);
    for (Rank r = 0; r < procs; ++r) {
      const bool is_victim =
          std::find(victims.begin(), victims.end(), r) != victims.end();
      EXPECT_EQ(mux.colored_in(static_cast<std::int64_t>(e), r), !is_victim)
          << "epoch " << e << " rank " << r;
    }
    previous_retire = std::max(previous_retire, epoch.retired);
  }
  // The window pipelines: epoch 1 and 2 were admitted at t = 0 alongside
  // epoch 0 (closed loop fills the window), not after epoch 0 retired.
  EXPECT_EQ(mux.epochs()[1].admitted, 0);
  EXPECT_EQ(mux.epochs()[2].admitted, 0);
  EXPECT_GT(mux.epochs()[0].retired, 0);
}

// Open-loop StreamMux: a rate faster than service saturates the window;
// surplus arrivals queue FIFO and every epoch is still admitted + retired.
TEST(SimStream, OpenLoopQueuesArrivalsWhenWindowFull) {
  const Rank procs = 16;
  const topo::Tree tree = topo::make_binomial_interleaved(procs);
  sim::FaultSet faults = sim::FaultSet::none(procs);

  proto::StreamMuxOptions mux_options;
  mux_options.epochs = 12;
  mux_options.window = 2;
  mux_options.interval = 1;  // one arrival per tick: far beyond service rate
  proto::StreamMux mux(
      [&] {
        return std::make_unique<proto::CorrectedTreeBroadcast>(tree, opportunistic(2));
      },
      mux_options);
  sim::Simulator simulator(sim::LogP{.P = procs}, &faults);
  simulator.run(mux, sim::RunOptions{});

  ASSERT_EQ(mux.retired_count(), 12);
  for (std::size_t e = 0; e < mux.epochs().size(); ++e) {
    const proto::StreamMuxEpoch& epoch = mux.epochs()[e];
    ASSERT_TRUE(epoch.complete());
    EXPECT_EQ(epoch.scheduled, static_cast<sim::Time>(e));
    EXPECT_GE(epoch.admitted, epoch.scheduled);
    EXPECT_GE(epoch.sojourn(), epoch.service());
  }
  // Queueing delay grows down the stream once the window saturates.
  EXPECT_GT(mux.epochs().back().sojourn(), mux.epochs().front().sojourn());
}

// W = 1, bytes = 1, G = 0 sim stream reproduces the one-shot simulator run
// exactly: same quiescence-equivalent coloring, same per-epoch message count
// as an isolated replication of the identical scenario.
TEST(SimStream, WindowOneChunklessMatchesOneShotSim) {
  const Rank procs = 32;
  const topo::Tree tree = topo::make_binomial_interleaved(procs);
  sim::FaultSet faults = sim::FaultSet::none(procs);

  proto::CorrectedTreeBroadcast one_shot(tree, opportunistic(2));
  sim::Simulator reference_sim(sim::LogP{.P = procs}, &faults);
  const sim::RunResult reference = reference_sim.run(one_shot, sim::RunOptions{});

  proto::StreamMuxOptions mux_options;
  mux_options.epochs = 4;
  mux_options.window = 1;
  proto::StreamMux mux(
      [&] {
        return std::make_unique<proto::CorrectedTreeBroadcast>(tree, opportunistic(2));
      },
      mux_options);
  sim::Simulator stream_sim(sim::LogP{.P = procs}, &faults);
  const sim::RunResult streamed = stream_sim.run(mux, sim::RunOptions{});

  ASSERT_EQ(mux.retired_count(), 4);
  EXPECT_EQ(streamed.total_messages, 4 * reference.total_messages);
  for (const proto::StreamMuxEpoch& epoch : mux.epochs()) {
    EXPECT_EQ(epoch.sends, reference.total_messages);
    EXPECT_EQ(epoch.colored, procs);
    // Retirement is the coloring completion of that epoch's instance.
    EXPECT_EQ(epoch.retired - epoch.admitted, reference.coloring_latency);
  }
}

}  // namespace
}  // namespace ct::rt
