// LogP simulator semantics (§2.2, Fig. 2): exact event timing, send/receive
// port serialisation, FIFO receive queueing, timers, fail-stop behaviour,
// and determinism — plus the fault injector.

#include <gtest/gtest.h>

#include <stdexcept>

#include "sim/simulator.hpp"

namespace ct::sim {
namespace {

using topo::Rank;

/// Scriptable protocol for poking the engine directly in tests.
class ScriptProtocol : public Protocol {
 public:
  std::function<void(Context&)> on_begin;
  std::function<void(Context&, Rank, const Message&)> on_recv;
  std::function<void(Context&, Rank, const Message&)> on_send_done;
  std::function<void(Context&, Rank, std::int64_t)> on_timer_fn;

  void begin(Context& ctx) override {
    if (on_begin) on_begin(ctx);
  }
  void on_receive(Context& ctx, Rank me, const Message& msg) override {
    if (on_recv) on_recv(ctx, me, msg);
  }
  void on_sent(Context& ctx, Rank me, const Message& msg) override {
    if (on_send_done) on_send_done(ctx, me, msg);
  }
  void on_timer(Context& ctx, Rank me, std::int64_t id) override {
    if (on_timer_fn) on_timer_fn(ctx, me, id);
  }
};

LogP params(Time L, Time o, Time g, Rank P) { return LogP{L, o, g, P}; }

TEST(LogP, Validation) {
  EXPECT_NO_THROW(params(2, 1, 1, 4).validate());
  EXPECT_THROW(params(2, 0, 1, 4).validate(), std::invalid_argument);
  EXPECT_THROW(params(-1, 1, 1, 4).validate(), std::invalid_argument);
  EXPECT_THROW(params(2, 1, 1, 0).validate(), std::invalid_argument);
  EXPECT_EQ(params(3, 2, 1, 4).message_cost(), 7);
  EXPECT_EQ(params(3, 1, 2, 4).port_period(), 2);
}

TEST(Simulator, SingleMessageTiming) {
  // One message 0 -> 1: send overhead o, wire L, receive overhead o.
  const LogP p = params(3, 2, 1, 2);
  Time recv_time = -1;
  ScriptProtocol proto;
  proto.on_begin = [](Context& ctx) { ctx.send(0, 1, 1, 0); };
  proto.on_recv = [&](Context& ctx, Rank me, const Message& msg) {
    recv_time = ctx.now();
    EXPECT_EQ(me, 1);
    EXPECT_EQ(msg.src, 0);
    ctx.mark_colored(me);
  };
  Simulator simulator(p, FaultSet::none(2));
  const RunResult result = simulator.run(proto);
  EXPECT_EQ(recv_time, 2 * p.o + p.L);  // 7
  EXPECT_EQ(result.quiescence_latency, 7);
  EXPECT_EQ(result.total_messages, 1);
}

TEST(Simulator, SendPortSerialisesByPortPeriod) {
  // Two back-to-back sends from rank 0: second receive completes one port
  // period later.
  const LogP p = params(2, 1, 1, 3);
  std::vector<Time> recv_times;
  ScriptProtocol proto;
  proto.on_begin = [](Context& ctx) {
    ctx.send(0, 1, 1, 0);
    ctx.send(0, 2, 1, 0);
  };
  proto.on_recv = [&](Context& ctx, Rank, const Message&) {
    recv_times.push_back(ctx.now());
  };
  Simulator simulator(p, FaultSet::none(3));
  simulator.run(proto);
  ASSERT_EQ(recv_times.size(), 2u);
  EXPECT_EQ(recv_times[0], 4);  // 2o + L
  EXPECT_EQ(recv_times[1], 5);  // + port period
}

TEST(Simulator, GapLargerThanOverheadDelaysSends) {
  // g > o: consecutive sends are g apart, not o.
  const LogP p = params(2, 1, 3, 3);
  std::vector<Time> recv_times;
  ScriptProtocol proto;
  proto.on_begin = [](Context& ctx) {
    ctx.send(0, 1, 1, 0);
    ctx.send(0, 2, 1, 0);
  };
  proto.on_recv = [&](Context& ctx, Rank, const Message&) {
    recv_times.push_back(ctx.now());
  };
  Simulator simulator(p, FaultSet::none(3));
  simulator.run(proto);
  ASSERT_EQ(recv_times.size(), 2u);
  EXPECT_EQ(recv_times[1] - recv_times[0], 3);
}

TEST(Simulator, ReceivePortQueuesFifo) {
  // Ranks 1 and 2 both send to 0 at time 0; the second arrival waits for
  // the receive port.
  const LogP p = params(2, 1, 1, 3);
  std::vector<std::pair<Rank, Time>> received;
  ScriptProtocol proto;
  proto.on_begin = [](Context& ctx) {
    ctx.send(1, 0, 1, 0);
    ctx.send(2, 0, 1, 0);
  };
  proto.on_recv = [&](Context& ctx, Rank, const Message& msg) {
    received.emplace_back(msg.src, ctx.now());
  };
  Simulator simulator(p, FaultSet::none(3));
  simulator.run(proto);
  ASSERT_EQ(received.size(), 2u);
  // Both arrive at o+L = 3; first receive completes at 4, second at 5
  // (insertion order breaks the tie deterministically).
  EXPECT_EQ(received[0].second, 4);
  EXPECT_EQ(received[1].second, 5);
  EXPECT_NE(received[0].first, received[1].first);
}

TEST(Simulator, SendAndReceiveOverlapOnOneProcess) {
  // §2.2: "Send overhead can overlap with receive overhead on the same
  // process." Rank 1 starts a send at t=0 and a message arrives at t=3;
  // the receive is NOT delayed by the concurrent send.
  const LogP p = params(2, 1, 1, 3);
  Time recv_at_1 = -1;
  ScriptProtocol proto;
  proto.on_begin = [](Context& ctx) {
    ctx.send(1, 2, 1, 0);  // keeps 1's send port busy
    ctx.send(0, 1, 1, 0);
  };
  proto.on_recv = [&](Context& ctx, Rank me, const Message&) {
    if (me == 1) recv_at_1 = ctx.now();
  };
  Simulator simulator(p, FaultSet::none(3));
  simulator.run(proto);
  EXPECT_EQ(recv_at_1, 4);  // 2o + L, unaffected
}

TEST(Simulator, OnSentFiresWhenPortFrees) {
  const LogP p = params(5, 2, 1, 2);
  Time sent_time = -1;
  ScriptProtocol proto;
  proto.on_begin = [](Context& ctx) { ctx.send(0, 1, 7, 0); };
  proto.on_send_done = [&](Context& ctx, Rank me, const Message& msg) {
    EXPECT_EQ(me, 0);
    EXPECT_EQ(msg.tag, 7);
    sent_time = ctx.now();
  };
  Simulator simulator(p, FaultSet::none(2));
  simulator.run(proto);
  EXPECT_EQ(sent_time, p.o);
}

TEST(Simulator, ChainedSendsFromOnSent) {
  // A protocol that sends the next message from on_sent achieves exactly
  // one send per port period.
  const LogP p = params(2, 1, 1, 8);
  std::vector<Time> send_done;
  ScriptProtocol proto;
  proto.on_begin = [](Context& ctx) { ctx.send(0, 1, 1, 1); };
  proto.on_send_done = [&](Context& ctx, Rank, const Message& msg) {
    send_done.push_back(ctx.now());
    if (msg.payload < 5) ctx.send(0, static_cast<Rank>(msg.payload + 1), 1, msg.payload + 1);
  };
  Simulator simulator(p, FaultSet::none(8));
  simulator.run(proto);
  ASSERT_EQ(send_done.size(), 5u);
  for (std::size_t i = 0; i < send_done.size(); ++i) {
    EXPECT_EQ(send_done[i], static_cast<Time>(i + 1));
  }
}

TEST(Simulator, TimersFireAtRequestedTime) {
  const LogP p = params(2, 1, 1, 4);
  std::vector<std::pair<Rank, Time>> fired;
  ScriptProtocol proto;
  proto.on_begin = [](Context& ctx) {
    ctx.set_timer(2, 10, 42);
    ctx.set_timer(1, 5, 43);
  };
  proto.on_timer_fn = [&](Context& ctx, Rank me, std::int64_t id) {
    fired.emplace_back(me, ctx.now());
    if (id == 43) {
      EXPECT_EQ(me, 1);
    }
  };
  Simulator simulator(p, FaultSet::none(4));
  simulator.run(proto);
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[0], (std::pair<Rank, Time>{1, 5}));
  EXPECT_EQ(fired[1], (std::pair<Rank, Time>{2, 10}));
}

TEST(Simulator, TimerInThePastThrows) {
  const LogP p = params(2, 1, 1, 2);
  ScriptProtocol proto;
  proto.on_begin = [](Context& ctx) { ctx.set_timer(0, 5, 1); };
  proto.on_timer_fn = [](Context& ctx, Rank, std::int64_t) {
    EXPECT_THROW(ctx.set_timer(0, 1, 2), std::invalid_argument);
  };
  Simulator simulator(p, FaultSet::none(2));
  simulator.run(proto);
}

TEST(Simulator, MessagesToFailedRanksVanishSilently) {
  const LogP p = params(2, 1, 1, 3);
  int receives = 0;
  int sends_completed = 0;
  ScriptProtocol proto;
  proto.on_begin = [](Context& ctx) {
    ctx.send(0, 1, 1, 0);  // 1 is dead
    ctx.send(0, 2, 1, 0);
  };
  proto.on_recv = [&](Context&, Rank, const Message&) { ++receives; };
  proto.on_send_done = [&](Context&, Rank, const Message&) { ++sends_completed; };
  Simulator simulator(p, FaultSet::from_list(3, {1}));
  const RunResult result = simulator.run(proto);
  EXPECT_EQ(receives, 1);
  // The sender pays full cost for both messages and cannot tell the
  // difference (§2.2).
  EXPECT_EQ(sends_completed, 2);
  EXPECT_EQ(result.total_messages, 2);
}

TEST(Simulator, FailedRanksNeverGetCallbacks) {
  const LogP p = params(2, 1, 1, 3);
  ScriptProtocol proto;
  proto.on_begin = [](Context& ctx) {
    ctx.set_timer(1, 4, 9);
    ctx.send(0, 1, 1, 0);
    ctx.send(1, 2, 1, 0);  // enqueue attempt by a dead rank: dropped
  };
  proto.on_recv = [&](Context&, Rank me, const Message&) { EXPECT_NE(me, 1); };
  proto.on_timer_fn = [&](Context&, Rank me, std::int64_t) { EXPECT_NE(me, 1); };
  Simulator simulator(p, FaultSet::from_list(3, {1}));
  const RunResult result = simulator.run(proto);
  EXPECT_EQ(result.total_messages, 1);  // only 0 -> 1 was actually sent
}

TEST(Simulator, KillAtStopsActivityMidRun) {
  const LogP p = params(2, 1, 1, 2);
  FaultSet faults = FaultSet::none(2);
  faults.kill_at(1, 10);
  int received = 0;
  ScriptProtocol proto;
  proto.on_begin = [](Context& ctx) {
    ctx.send(0, 1, 1, 0);  // receive completes at 4 < 10: delivered
  };
  proto.on_recv = [&](Context& ctx, Rank me, const Message& msg) {
    if (me == 1 && msg.payload == 0) {
      ++received;
      ctx.set_timer(1, 20, 5);  // after death: must not fire
    }
  };
  proto.on_timer_fn = [&](Context&, Rank, std::int64_t) { FAIL() << "fired after death"; };
  Simulator simulator(p, faults);
  simulator.run(proto);
  EXPECT_EQ(received, 1);
}

TEST(Simulator, ColoringLatencyTracksLastLiveColoring) {
  const LogP p = params(2, 1, 1, 3);
  ScriptProtocol proto;
  proto.on_begin = [](Context& ctx) {
    ctx.mark_colored(0);
    ctx.send(0, 1, 1, 0);
    ctx.send(0, 2, 1, 0);
  };
  proto.on_recv = [](Context& ctx, Rank me, const Message&) { ctx.mark_colored(me); };
  Simulator simulator(p, FaultSet::none(3));
  const RunResult result = simulator.run(proto);
  EXPECT_EQ(result.coloring_latency, 5);
  EXPECT_EQ(result.uncolored_live, 0);
  EXPECT_TRUE(result.fully_colored());
}

TEST(Simulator, UncoloredLiveCounted) {
  const LogP p = params(2, 1, 1, 4);
  ScriptProtocol proto;
  proto.on_begin = [](Context& ctx) { ctx.mark_colored(0); };
  Simulator simulator(p, FaultSet::from_list(4, {3}));
  const RunResult result = simulator.run(proto);
  EXPECT_EQ(result.uncolored_live, 2);  // ranks 1 and 2
  EXPECT_FALSE(result.fully_colored());
}

TEST(Simulator, MarkColoredIsIdempotentFirstWins) {
  const LogP p = params(2, 1, 1, 2);
  ScriptProtocol proto;
  proto.on_begin = [](Context& ctx) {
    ctx.mark_colored(0);
    ctx.send(0, 1, 1, 0);
    ctx.send(0, 1, 1, 1);
  };
  proto.on_recv = [](Context& ctx, Rank me, const Message&) { ctx.mark_colored(me); };
  Simulator simulator(p, FaultSet::none(2));
  const RunResult result = simulator.run(proto);
  // Colored at first receive (4), not at the duplicate (5).
  EXPECT_EQ(result.coloring_latency, 4);
}

TEST(Simulator, CorrectionSnapshotTakenOnce) {
  const LogP p = params(2, 1, 1, 4);
  ScriptProtocol proto;
  proto.on_begin = [](Context& ctx) {
    ctx.mark_colored(0);
    ctx.mark_colored(2);
    ctx.set_timer(0, 6, 1);
    ctx.set_timer(1, 8, 1);
  };
  proto.on_timer_fn = [](Context& ctx, Rank me, std::int64_t) {
    ctx.note_correction_start();
    if (me == 0) ctx.mark_colored(1);  // after the snapshot
  };
  Simulator simulator(p, FaultSet::none(4));
  const RunResult result = simulator.run(proto);
  ASSERT_TRUE(result.has_dissemination_snapshot);
  EXPECT_EQ(result.correction_start, 6);
  // Snapshot sees {0, 2} colored: two gaps of size 1.
  EXPECT_EQ(result.dissemination_gaps.max_gap, 1);
  EXPECT_EQ(result.dissemination_gaps.gap_count, 2);
}

TEST(Simulator, PerRankDetailOptIn) {
  const LogP p = params(2, 1, 1, 3);
  ScriptProtocol proto;
  proto.on_begin = [](Context& ctx) {
    ctx.mark_colored(0);
    ctx.send(0, 1, 1, 0);
  };
  proto.on_recv = [](Context& ctx, Rank me, const Message&) { ctx.mark_colored(me); };
  Simulator simulator(p, FaultSet::none(3));
  RunOptions options;
  options.keep_per_rank_detail = true;
  const RunResult result = simulator.run(proto, options);
  ASSERT_EQ(result.colored_at.size(), 3u);
  EXPECT_EQ(result.colored_at[0], 0);
  EXPECT_EQ(result.colored_at[1], 4);
  EXPECT_EQ(result.colored_at[2], kTimeNever);
  ASSERT_EQ(result.sends_per_rank.size(), 3u);
  EXPECT_EQ(result.sends_per_rank[0], 1);
}

TEST(Simulator, TraceRecordsLifecycle) {
  const LogP p = params(2, 1, 1, 2);
  std::vector<TraceEvent::Kind> kinds;
  ScriptProtocol proto;
  proto.on_begin = [](Context& ctx) { ctx.send(0, 1, 1, 0); };
  Simulator simulator(p, FaultSet::none(2));
  RunOptions options;
  options.trace = [&](const TraceEvent& event) { kinds.push_back(event.kind); };
  simulator.run(proto, options);
  ASSERT_EQ(kinds.size(), 4u);
  EXPECT_EQ(kinds[0], TraceEvent::Kind::kSendStart);
  EXPECT_EQ(kinds[1], TraceEvent::Kind::kSendDone);
  EXPECT_EQ(kinds[2], TraceEvent::Kind::kArrival);
  EXPECT_EQ(kinds[3], TraceEvent::Kind::kRecvDone);
}

TEST(Simulator, MaxEventsGuardsAgainstRunaways) {
  const LogP p = params(2, 1, 1, 2);
  ScriptProtocol proto;
  proto.on_begin = [](Context& ctx) { ctx.send(0, 1, 1, 0); };
  proto.on_send_done = [](Context& ctx, Rank, const Message&) {
    ctx.send(0, 1, 1, 0);  // infinite chain
  };
  Simulator simulator(p, FaultSet::none(2));
  RunOptions options;
  options.max_events = 1000;
  EXPECT_THROW(simulator.run(proto, options), std::runtime_error);
}

TEST(Simulator, RankRangeChecked) {
  const LogP p = params(2, 1, 1, 2);
  ScriptProtocol proto;
  proto.on_begin = [](Context& ctx) { ctx.send(0, 5, 1, 0); };
  Simulator simulator(p, FaultSet::none(2));
  EXPECT_THROW(simulator.run(proto), std::out_of_range);
}

TEST(Simulator, FaultSetSizeMustMatch) {
  EXPECT_THROW(Simulator(params(2, 1, 1, 4), FaultSet::none(3)), std::invalid_argument);
}

// --- FaultSet -------------------------------------------------------------------

TEST(FaultSet, NoneIsAllAlive) {
  const FaultSet faults = FaultSet::none(10);
  EXPECT_EQ(faults.failed_count(), 0);
  for (Rank r = 0; r < 10; ++r) {
    EXPECT_TRUE(faults.alive_at(r, 1'000'000));
    EXPECT_TRUE(faults.always_alive(r));
  }
}

TEST(FaultSet, RandomCountIsExactAndSparesRoot) {
  support::Xoshiro256ss rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    const FaultSet faults = FaultSet::random_count(64, 10, rng);
    EXPECT_EQ(faults.failed_count(), 10);
    EXPECT_TRUE(faults.always_alive(0));
    EXPECT_EQ(faults.initially_failed().size(), 10u);
  }
}

TEST(FaultSet, RandomCountCoversWholePopulation) {
  // Over many draws with 1 failure each, every non-root rank gets hit.
  support::Xoshiro256ss rng(7);
  std::vector<int> hits(16, 0);
  for (int trial = 0; trial < 4000; ++trial) {
    const FaultSet faults = FaultSet::random_count(16, 1, rng);
    ++hits[static_cast<std::size_t>(faults.initially_failed().front())];
  }
  EXPECT_EQ(hits[0], 0);
  for (Rank r = 1; r < 16; ++r) EXPECT_GT(hits[static_cast<std::size_t>(r)], 0);
}

TEST(FaultSet, FractionRounds) {
  support::Xoshiro256ss rng(5);
  EXPECT_EQ(FaultSet::random_fraction(101, 0.10, rng).failed_count(), 10);
  EXPECT_EQ(FaultSet::random_fraction(101, 0.0, rng).failed_count(), 0);
}

TEST(FaultSet, ExtremeCount) {
  support::Xoshiro256ss rng(3);
  const FaultSet faults = FaultSet::random_count(8, 7, rng);
  EXPECT_EQ(faults.failed_count(), 7);
  EXPECT_TRUE(faults.always_alive(0));
  EXPECT_THROW(FaultSet::random_count(8, 8, rng), std::invalid_argument);
}

TEST(FaultSet, FromListValidation) {
  EXPECT_THROW(FaultSet::from_list(4, {0}), std::invalid_argument);
  EXPECT_THROW(FaultSet::from_list(4, {4}), std::invalid_argument);
  const FaultSet faults = FaultSet::from_list(4, {2, 2, 3});
  EXPECT_EQ(faults.failed_count(), 2);  // duplicates collapse
  EXPECT_TRUE(faults.failed_from_start(2));
  EXPECT_FALSE(faults.failed_from_start(1));
}

TEST(FaultSet, KillAtSemantics) {
  FaultSet faults = FaultSet::none(4);
  faults.kill_at(2, 7);
  EXPECT_TRUE(faults.alive_at(2, 6));
  EXPECT_FALSE(faults.alive_at(2, 7));
  EXPECT_FALSE(faults.failed_from_start(2));
  EXPECT_EQ(faults.failed_count(), 1);
  EXPECT_THROW(faults.kill_at(0, 3), std::invalid_argument);
}

TEST(FaultSet, KillAtKeepsTheEarliestDeath) {
  // A mid-run kill of a rank the static sample already failed must not
  // revive it until the kill time: it stays failed from start.
  FaultSet faults = FaultSet::from_list(6, {3});
  faults.kill_at(3, 1);
  EXPECT_TRUE(faults.failed_from_start(3));
  EXPECT_EQ(faults.dies_at(3), 0);
  EXPECT_EQ(faults.failed_count(), 1);
  EXPECT_EQ(faults.initially_failed(), std::vector<topo::Rank>{3});
  // An earlier kill still wins over a later one.
  faults.kill_at(4, 9);
  faults.kill_at(4, 5);
  faults.kill_at(4, 7);
  EXPECT_EQ(faults.dies_at(4), 5);
  EXPECT_EQ(faults.failed_count(), 2);
}

}  // namespace
}  // namespace ct::sim

// NOTE: appended suite — per-process timeline rendering (Fig. 5a utility).
#include "sim/timeline.hpp"

namespace ct::sim {
namespace {

TEST(Timeline, RecordsPortOccupancy) {
  const LogP p{1, 1, 1, 9};
  ScriptProtocol proto;
  proto.on_begin = [](Context& ctx) {
    ctx.send(0, 1, 1, 0);
    ctx.send(0, 2, 1, 0);
  };
  TimelineRecorder recorder(p);
  RunOptions options;
  options.trace = recorder.callback();
  Simulator simulator(p, FaultSet::none(9));
  simulator.run(proto, options);
  EXPECT_EQ(recorder.send_spans(0), 2u);
  EXPECT_EQ(recorder.recv_spans(1), 1u);
  EXPECT_EQ(recorder.recv_spans(2), 1u);
  EXPECT_EQ(recorder.send_spans(3), 0u);
  const std::string grid = recorder.render();
  EXPECT_NE(grid.find('S'), std::string::npos);
  EXPECT_NE(grid.find('R'), std::string::npos);
  // 9 rank rows + ruler + legend.
  EXPECT_EQ(std::count(grid.begin(), grid.end(), '\n'), 11);
}

TEST(Timeline, MatchesFigure5aShape) {
  // Lamé k=3, P=9, L=o=1: the root sends in slots 0..4; process 1 sends
  // for the first time at iteration 3 (§3.2.2's worked example).
  const LogP p{1, 1, 1, 9};
  const topo::Tree tree = topo::make_lame(9, 3);
  ScriptProtocol proto;
  const topo::Tree* tree_ptr = &tree;
  proto.on_begin = [tree_ptr](Context& ctx) {
    ctx.mark_colored(0);
    for (topo::Rank c : tree_ptr->children(0)) ctx.send(0, c, 1, 0);
  };
  proto.on_recv = [tree_ptr](Context& ctx, topo::Rank me, const Message&) {
    ctx.mark_colored(me);
    for (topo::Rank c : tree_ptr->children(me)) ctx.send(me, c, 1, 0);
  };
  TimelineRecorder recorder(p);
  RunOptions options;
  options.trace = recorder.callback();
  Simulator simulator(p, FaultSet::none(9));
  const RunResult result = simulator.run(proto, options);
  EXPECT_EQ(result.coloring_latency, 7);  // optimal: R(t) >= 9 first at t+2o+L
  EXPECT_EQ(recorder.send_spans(0), 5u);  // root's children: 1,2,3,4,6
  EXPECT_EQ(recorder.send_spans(1), 2u);  // 5 and 7
  EXPECT_EQ(recorder.send_spans(2), 1u);  // 8
  EXPECT_EQ(recorder.send_spans(8), 0u);
}

}  // namespace
}  // namespace ct::sim
