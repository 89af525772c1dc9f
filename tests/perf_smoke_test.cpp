// perf-smoke suite: the cheap canaries for the PR6/PR7 fast paths, sized
// to run inside the sanitize/tsan label sweeps. One tiny sharded cell
// proves the SPSC mesh still moves real protocol traffic end-to-end; the
// batched same-tick dispatch (drain_tick) is checked to be observationally
// identical to one-at-a-time pop_into on both simulator queues — including
// handlers that push same-tick work mid-drain; the PR7 SoA key lane is
// checked against an AoS reference heap ordered by Event::operator> (the
// reference total order the 16-byte EventKey must reproduce); full runs are
// compared bit-for-bit across the two queue engines; and the rt mesh under
// 2-slot backpressure is held to the simulator's outcome under kill=
// crashes.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "experiment/run_spec.hpp"
#include "experiment/runner.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "support/rng.hpp"

namespace ct::sim {
namespace {

using detail::CalendarQueue;
using detail::Event;
using detail::EventHeapQueue;
using detail::EventKind;
using detail::kNumLanes;

TEST(PerfSmoke, ShardedMeshCellStaysHealthy) {
  const exp::RunRecord record = exp::run(exp::parse_run_spec(
      "bcast:binomial:checked:overlapped@P=128,reps=3,warmup=1,"
      "exec=rt-sharded:w=4"));
  EXPECT_EQ(record.runs, 3);
  EXPECT_EQ(record.workers, 4);
  EXPECT_EQ(record.incomplete, 0);
  EXPECT_EQ(record.timeouts, 0);
  EXPECT_GT(record.messages_per_sec, 0.0);
  EXPECT_GT(record.latency_p50, 0.0);
}

// --- batched dispatch vs one-at-a-time: the ordering oracle ---

struct Dispatched {
  Time time;
  std::uint32_t seq;
  EventKind kind;
  std::int64_t payload;
  friend bool operator==(const Dispatched&, const Dispatched&) = default;
};

std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

// Self-feeding event script: every dispatched event deterministically
// spawns 0-2 follow-ups (a pure function of the event, NOT of queue
// internals) at offsets that cover same-tick same-lane, same-tick
// lower-lane (the mid-drain preemption case), near-future ring slots, and
// far-future overflow pushes. If two queue drivers dispatch in the same
// order they generate the same stream, so comparing the dispatch logs is a
// complete ordering check.
template <class Queue>
std::vector<Dispatched> run_script(Queue& queue, bool batched) {
  constexpr int kBudget = 20000;
  std::uint32_t next_seq = 0;
  int produced = 0;
  auto push_event = [&](Time t, EventKind kind, std::int64_t payload) {
    Event e;
    e.time = t;
    e.seq = next_seq++;
    e.kind = kind;
    e.msg.src = 0;
    e.msg.dst = 1;
    e.msg.payload = payload;
    queue.push(e);
    ++produced;
  };
  for (int i = 0; i < 32; ++i) {
    const std::uint64_t h = mix(static_cast<std::uint64_t>(i) + 17);
    push_event(static_cast<Time>(h % 16),
               static_cast<EventKind>(h / 7 % kNumLanes), i);
  }
  std::vector<Dispatched> out;
  auto sink = [&](const Event& e) {
    out.push_back({e.time, e.seq, e.kind, e.msg.payload});
    const std::uint64_t h =
        mix((static_cast<std::uint64_t>(e.seq) << 20) ^
            static_cast<std::uint64_t>(e.time));
    const int children = static_cast<int>(h % 3);
    for (int c = 0; c < children && produced < kBudget; ++c) {
      const std::uint64_t hc = mix(h + static_cast<std::uint64_t>(c) + 1);
      static constexpr Time kOffsets[] = {0, 0, 0, 1, 2, 5, 31, 700};
      push_event(e.time + kOffsets[hc % 8],
                 static_cast<EventKind>(hc / 11 % kNumLanes),
                 static_cast<std::int64_t>(hc % 1000));
    }
  };
  Event single;
  while (!queue.empty()) {
    if (batched && queue.drain_tick(sink) != 0) continue;
    queue.pop_into(single);
    sink(single);
  }
  return out;
}

// AoS reference queue: the pre-PR7 layout distilled — whole 48-byte Events
// in a std::priority_queue ordered by Event::operator>, the documented
// reference total order. The SoA queues must dispatch identically or the
// packed (time, ord) key lane broke the order.
struct AosRefQueue {
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> pq;
  void push(const Event& e) { pq.push(e); }
  bool empty() const { return pq.empty(); }
  void pop_into(Event& out) {
    out = pq.top();
    pq.pop();
  }
  template <class Sink>
  std::int64_t drain_tick(Sink&&) {
    return 0;  // no batched path; run_script only calls this when batched
  }
};

TEST(PerfSmoke, SoAQueuesMatchAosReferenceOrder) {
  AosRefQueue aos;
  const std::vector<Dispatched> expected = run_script(aos, false);
  ASSERT_GT(expected.size(), 1000u);

  EventHeapQueue soa_heap;
  EXPECT_EQ(run_script(soa_heap, false), expected);

  CalendarQueue soa_calendar;
  soa_calendar.reset(64);  // < the 700-tick offset: overflow tier engaged
  EXPECT_EQ(run_script(soa_calendar, false), expected);
}

TEST(PerfSmoke, BatchedDispatchMatchesPopOrderOnBothQueues) {
  // Reference: the binary heap popped one event at a time — the (time,
  // lane, seq) total order by construction.
  EventHeapQueue heap_single;
  const std::vector<Dispatched> expected = run_script(heap_single, false);
  ASSERT_GT(expected.size(), 1000u);

  EventHeapQueue heap_batched;
  EXPECT_EQ(run_script(heap_batched, true), expected);

  // horizon=64 < the 700-tick offset above, so the overflow tier (and
  // drain_tick's overflow-due fallback to pop_into) is genuinely hit.
  CalendarQueue calendar_single;
  calendar_single.reset(64);
  EXPECT_EQ(run_script(calendar_single, false), expected);

  CalendarQueue calendar_batched;
  calendar_batched.reset(64);
  EXPECT_EQ(run_script(calendar_batched, true), expected);
}

TEST(PerfSmoke, SimSweepRepeatsBitIdenticalUnderBatchedDispatch) {
  const char* kCell =
      "bcast:binomial:checked:sync@P=512,f=0.02,reps=40,seed=1234,exec=sim";
  const exp::RunRecord a = exp::run(exp::parse_run_spec(kCell));
  const exp::RunRecord b = exp::run(exp::parse_run_spec(kCell));
  // Bit-identical, not approximately equal — the PR6 sweep gate.
  EXPECT_EQ(a.latency_mean, b.latency_mean);
  EXPECT_EQ(a.latency_p50, b.latency_p50);
  EXPECT_EQ(a.latency_p99, b.latency_p99);
  EXPECT_EQ(a.messages_per_process, b.messages_per_process);
  EXPECT_EQ(a.incomplete, b.incomplete);
  EXPECT_GT(a.latency_mean, 0.0);
}

TEST(PerfSmoke, SweepDigestBitIdenticalAcrossQueueEngines) {
  // Whole-simulation digest of the SoA rewrite: every replication of a
  // faulty sweep must produce bit-identical results on the calendar queue
  // and the binary-heap fallback — two independent SoA implementations of
  // the same total order, so a layout bug in either shows as a digest split.
  const exp::Scenario scenario =
      exp::parse_run_spec("bcast:binomial:checked:sync@P=512,f=0.02,exec=sim")
          .to_scenario();
  RunOptions calendar;
  calendar.queue = QueueKind::kCalendar;
  RunOptions heap;
  heap.queue = QueueKind::kBinaryHeap;
  for (std::uint64_t rep = 0; rep < 16; ++rep) {
    const std::uint64_t seed = support::derive_seed(1234, rep);
    const RunResult a = exp::run_once(scenario, seed, calendar);
    const RunResult b = exp::run_once(scenario, seed, heap);
    EXPECT_EQ(a.quiescence_latency, b.quiescence_latency) << "rep " << rep;
    EXPECT_EQ(a.coloring_latency, b.coloring_latency) << "rep " << rep;
    EXPECT_EQ(a.total_messages, b.total_messages) << "rep " << rep;
    EXPECT_EQ(a.events_processed, b.events_processed) << "rep " << rep;
    EXPECT_EQ(a.uncolored_live, b.uncolored_live) << "rep " << rep;
  }
}

TEST(PerfSmoke, MeshAndInboxAgreeUnderKillCrashes) {
  // The copy-free delivery path (in-place outbox refs + consume_all into
  // the fifos) must not change outcomes, also with 2-slot rings forcing
  // staged retries — including when kill= victims crash mid-epoch and
  // their in-flight traffic is discarded. The simulator is the reference.
  const char* kBase =
      "bcast:binomial:checked:overlapped@P=128,kill=3+17+64,reps=2,warmup=1,";
  const exp::RunRecord mesh = exp::run(
      exp::parse_run_spec(std::string(kBase) + "deadline-ms=10000,exec=rt-sharded:w=4:mesh-cap=2"));
  const exp::RunRecord expected =
      exp::run(exp::parse_run_spec(std::string(kBase) + "exec=sim"));
  const std::vector<topo::Rank> killed{3, 17, 64};
  EXPECT_EQ(mesh.crashed_ranks, killed);
  EXPECT_EQ(expected.crashed_ranks, killed);
  EXPECT_EQ(mesh.uncolored_survivors, expected.uncolored_survivors);
  EXPECT_EQ(mesh.incomplete, expected.incomplete);
  EXPECT_EQ(mesh.timeouts, 0);
  EXPECT_GT(mesh.messages_per_sec, 0.0);
}

}  // namespace
}  // namespace ct::sim
